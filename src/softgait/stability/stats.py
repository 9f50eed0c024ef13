"""Exponent bookkeeping and the rank-sum test used for MOS comparisons."""

from __future__ import annotations

import math

import numpy as np

EXACT_MAX_N = 20
ALPHA = 0.01      # significance level of every rank-sum comparison


def delta_lambda(lam: float, lam_baseline: float) -> float:
    """Change of a divergence exponent against the baseline controller;
    negative means improved stability."""
    return lam - lam_baseline


def _u_counts(n1: int, n2: int) -> np.ndarray:
    """counts[u]: how many of the C(n1 + n2, n1) orderings of n1 + n2
    distinct values give the rank-sum statistic U = u.

    f(i, j) = f(i - 1, j) shifted by j + f(i, j - 1): the largest value
    is either from the first sample, above all j of the second, or from
    the second.  C(40, 20) ~ 1.4e11, so the counts fit in int64.
    """
    size = n1 * n2 + 1
    delta = np.zeros(size, dtype=np.int64)
    delta[0] = 1
    prev = [delta] * (n2 + 1)            # f(0, j)
    for _ in range(n1):
        row = [delta]                    # f(i, 0)
        for j in range(1, n2 + 1):
            f = row[j - 1].copy()
            f[j:] += prev[j][:size - j]
            row.append(f)
        prev = row
    return prev[n2]


def wilcoxon_ranksum(sample_a, sample_b):
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

    Exact null distribution when both samples have at most EXACT_MAX_N
    observations and there are no ties; otherwise the normal
    approximation with tie correction and no continuity correction.
    numpy and math only, so that `compare` loads no scipy.stats.
    Returns (p_value, significant at ALPHA).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("samples must be finite")
    if np.all(pooled == pooled[0]):
        return 1.0, False
    n1, n2, n = len(a), len(b), len(pooled)
    _, inverse, ties = np.unique(pooled, return_inverse=True,
                                 return_counts=True)
    # average rank of each distinct value: its last rank less half the
    # rest of its tie group
    ranks = np.cumsum(ties) - (ties - 1) / 2
    u1 = ranks[inverse[:n1]].sum() - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if n1 <= EXACT_MAX_N and n2 <= EXACT_MAX_N and len(ties) == n:
        counts = _u_counts(n1, n2)
        # both tails: 2 P(U <= min(U1, U2)), the null being symmetric
        tail = int(counts[:n1 * n2 - int(u) + 1].sum())
        p = min(1.0, 2 * tail / int(counts.sum()))
    else:
        tie_term = int(np.sum(ties ** 3 - ties))
        s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        p = math.erfc(abs(u - n1 * n2 / 2) / s / math.sqrt(2))
    return p, p < ALPHA
