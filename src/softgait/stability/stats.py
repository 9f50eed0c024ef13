"""Report comparison: exponent changes against a baseline and rank-sum
tests of the margins of stability, in numpy and math alone and with no
softgait import but `io`, so that `compare` loads no scipy."""

from __future__ import annotations

import math

import numpy as np

from ..io import AXES, is_finite

EXACT_MAX_N = 20
ALPHA = 0.01      # significance level of every rank-sum comparison
# the (axis, horizon) exponents and (side, direction) margins compared
EXPONENTS = [(axis, h) for axis in AXES for h in ("short", "long")]
MARGINS = [(side, d) for side in ("left", "right") for d in ("ML", "AP")]


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


class SchemaMismatchError(ValueError):
    """A field that compare_reports reads is missing or not finite."""


def compare_reports(baseline: dict, candidates: dict[str, dict]) -> dict:
    """Exponent changes against the baseline and MOS rank-sum tests.

    Negative delta means improved local dynamic stability; for margins of
    stability, larger is better, so improvement is a greater mean.
    """
    base = _read_report(baseline)
    read = {name: _read_report(cand) for name, cand in candidates.items()}
    out = {"baseline": base["meta"], "alpha": ALPHA, "candidates": {}}
    for name, cand in read.items():
        entry = out["candidates"][name] = {
            "meta": cand["meta"], "delta_lambda": {a: {} for a in AXES},
            "mos": {"left": {}, "right": {}}}
        for axis, horizon in EXPONENTS:
            d = delta_lambda(cand[axis, horizon], base[axis, horizon])
            entry["delta_lambda"][axis][horizon] = {
                "delta": d, "improved": d < 0}
        for side, direction in MARGINS:
            mean, samples = cand[side, direction]
            base_mean, base_samples = base[side, direction]
            p, significant = wilcoxon_ranksum(samples, base_samples)
            entry["mos"][side][direction] = {
                "mean": mean, "baseline_mean": base_mean, "p_value": p,
                "significant": significant, "improved": mean > base_mean}
    return out


def _read_report(report) -> dict:
    """The fields compare_reports reads, each fetched and checked once:
    "meta", the exponent mean at each (axis, horizon) of EXPONENTS, and
    the MOS (mean, per_cycle) at each (side, direction) of MARGINS."""
    fields = {"meta": _field(report, "meta")}
    for block, keys in (("lyapunov", EXPONENTS), ("mos", MARGINS)):
        for key in keys:
            fields[key] = _field(report, block, *key, "mean", finite=True)
    for key in MARGINS:
        samples = _field(report, "mos", *key, "per_cycle")
        if not (isinstance(samples, list) and samples
                and all(map(is_finite, samples))):
            raise SchemaMismatchError(
                f"report mos.{'.'.join(key)}.per_cycle is not a "
                "non-empty list of finite numbers")
        fields[key] = fields[key], samples
    return fields


def _field(report, *path: str, finite: bool = False):
    """report[path[0]][path[1]]...; refused when a key is missing or a
    level is not an object, and with `finite` unless a finite number."""
    value = report
    for depth, key in enumerate(path):
        if not isinstance(value, dict) or key not in value:
            raise SchemaMismatchError(
                f"report missing {'.'.join(path[:depth + 1])}")
        value = value[key]
    if finite and not is_finite(value):
        raise SchemaMismatchError(
            f"report {'.'.join(path)} is not a finite number")
    return value
