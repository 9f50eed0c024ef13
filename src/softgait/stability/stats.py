"""Exponent bookkeeping and the rank-sum test used for MOS comparisons."""

from __future__ import annotations

import numpy as np
from scipy.stats import mannwhitneyu

EXACT_MAX_N = 20
ALPHA = 0.01      # significance level of every rank-sum comparison


def delta_lambda(lam: float, lam_baseline: float) -> float:
    """Change of a divergence exponent against the baseline controller;
    negative means improved stability."""
    return lam - lam_baseline


def wilcoxon_ranksum(sample_a, sample_b):
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

    Exact null distribution when both samples have at most EXACT_MAX_N
    observations and there are no ties; otherwise the normal
    approximation with tie correction and no continuity correction.
    Returns (p_value, significant at ALPHA).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    if np.all(pooled == pooled[0]):
        return 1.0, False
    has_ties = len(np.unique(pooled)) < len(pooled)
    exact = len(a) <= EXACT_MAX_N and len(b) <= EXACT_MAX_N and not has_ties
    p = float(mannwhitneyu(a, b, use_continuity=False,
                           alternative="two-sided",
                           method="exact" if exact else "asymptotic").pvalue)
    return p, p < ALPHA
