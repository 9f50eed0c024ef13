"""Divergence-exponent estimation: nearest-neighbor tracking over a
horizon of HORIZON_STRIDES strides and least-squares slopes of the mean
log-distance curve over strides 0-1 and 4 to the horizon (per-stride
units)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..signals import TimeSeries, time_normalize
from .embedding import (Attractor, EmbeddingParams, NoMinimumError, ami_delay,
                        delay_embed, fnn_dimension)

_LOG_FLOOR = 1e-300
HORIZON_STRIDES = 10   # strides each neighbor pair is tracked for
MAX_LAG = 30           # AMI lags searched for the embedding delay
FALLBACK_TAU = 10      # delay used when AMI has no minimum within MAX_LAG
MAX_DIM = 8            # largest embedding dimension FNN may return


@dataclass
class DivergenceResult:
    curve: np.ndarray          # mean ln distance, length horizon_samples + 1
    lambda_short: float        # slope over strides [0, 1]
    lambda_long: float         # slope over strides [4, HORIZON_STRIDES]
    n_pairs: int


def _slope(curve: np.ndarray, spst: int, s0: float, s1: float) -> float:
    i0, i1 = int(round(s0 * spst)), int(round(s1 * spst))
    strides = np.arange(i0, i1 + 1) / spst   # closed interval
    seg = curve[i0:i1 + 1]
    return float(np.polyfit(strides, seg, 1)[0])


def rosenstein_divergence(att: Attractor,
                          samples_per_stride: int) -> DivergenceResult:
    """Track each point's nearest neighbor (outside a one-stride Theiler
    window) for HORIZON_STRIDES strides and average the log distances."""
    pts = att.points
    n = len(pts)
    horizon = HORIZON_STRIDES * samples_per_stride
    theiler = samples_per_stride
    if n <= horizon + theiler:
        raise ValueError("attractor too short for the requested horizon")

    n_track = n - horizon       # points with a full future horizon
    base = pts[:n_track]
    tree = cKDTree(base)

    def _first_valid(rows, dist, idx):
        ok = np.abs(idx - rows[:, None]) > theiler
        first = np.argmax(ok, axis=1)
        return ok[np.arange(len(rows)), first], idx[np.arange(len(rows)), first]

    # cheap query first; re-query the few points whose Theiler exclusion
    # zone swallowed all nearby neighbors
    rows = np.arange(n_track)
    k1 = min(32, n_track)
    dist, idx = tree.query(base, k=k1, workers=-1)
    has, nbr = _first_valid(rows, dist, idx)
    if not has.all() and k1 < n_track:
        k2 = min(2 * theiler + 2, n_track)
        miss = rows[~has]
        dist2, idx2 = tree.query(base[miss], k=k2, workers=-1)
        has2, nbr2 = _first_valid(miss, dist2, idx2)
        has[miss] = has2
        nbr[miss] = nbr2
    i_idx = rows[has]
    j_idx = nbr[has]
    if len(i_idx) < 10:
        raise ValueError("fewer than 10 valid neighbor pairs")

    curve = np.zeros(horizon + 1)
    dim = pts.shape[1]
    tau = att.params.tau
    if dim > 1 and np.array_equal(pts[tau:, :-1], pts[:-tau, 1:]):
        # delay-structured attractor: track distances on the underlying
        # scalar series with sliding windows instead of per-step gathers
        series = np.concatenate([pts[:, 0], pts[n - (dim - 1) * tau:, dim - 1]])
        offs = np.arange(horizon + 1 + (dim - 1) * tau)
        for lo in range(0, len(i_idx), 2048):
            sl = slice(lo, lo + 2048)
            d2 = (series[i_idx[sl, None] + offs]
                  - series[j_idx[sl, None] + offs]) ** 2
            tot = d2[:, :horizon + 1].copy()
            for m in range(1, dim):
                tot += d2[:, m * tau:m * tau + horizon + 1]
            curve += np.log(np.maximum(np.sqrt(tot),
                                       _LOG_FLOOR)).sum(axis=0)
        curve /= len(i_idx)
    else:
        for step in range(horizon + 1):
            d = np.linalg.norm(pts[i_idx + step] - pts[j_idx + step], axis=1)
            curve[step] = float(np.mean(np.log(np.maximum(d, _LOG_FLOOR))))

    return DivergenceResult(
        curve=curve,
        lambda_short=_slope(curve, samples_per_stride, 0.0, 1.0),
        lambda_long=_slope(curve, samples_per_stride, 4.0, HORIZON_STRIDES),
        n_pairs=len(i_idx))


@dataclass
class WindowedLyapunov:
    lambda_short_mean: float
    lambda_short_sd: float
    lambda_long_mean: float
    lambda_long_sd: float
    per_window_short: np.ndarray
    per_window_long: np.ndarray
    mean_curve: np.ndarray
    params: EmbeddingParams


def windowed_lyapunov(series: TimeSeries, events: np.ndarray,
                      window_strides: int = 150, n_windows: int = 25,
                      points_per_window: int = 15000,
                      params: EmbeddingParams | None = None
                      ) -> WindowedLyapunov:
    """Divergence exponents over overlapping windows of strides.

    Window w covers strides [w, w + window_strides); each window is
    time-normalized to `points_per_window` samples, embedded, and analyzed;
    means and standard deviations are taken across windows.  Embedding
    parameters are estimated once on the first window (or passed in).

    Time normalization maps each stride onto its own samples, so every
    window's normalized series, and its delay vectors, are an exact slice
    of one normalization and embedding of all the windowed strides.
    """
    events = np.asarray(events, dtype=int)
    n_strides = len(events) - 1
    total_strides = window_strides + n_windows - 1
    if n_strides < total_strides:
        raise ValueError(f"need {total_strides} strides, have {n_strides}")
    if points_per_window % window_strides != 0:
        raise ValueError("points_per_window must be divisible by "
                         "window_strides")
    spst = points_per_window // window_strides

    normalized = time_normalize(series, events[:total_strides + 1],
                                total_strides, total_strides * spst)
    if params is None:
        first = normalized.with_samples(
            normalized.samples[:points_per_window])
        try:
            tau = ami_delay(first, MAX_LAG)
        except NoMinimumError:
            tau = FALLBACK_TAU
        dim, _ = fnn_dimension(first, tau, MAX_DIM)
        params = EmbeddingParams(tau=tau, dim=dim)
    n_window_points = points_per_window - (params.dim - 1) * params.tau
    if n_window_points < 1:
        raise ValueError(
            f"window of {points_per_window} points too short for "
            f"tau={params.tau}, dim={params.dim}")
    whole = delay_embed(normalized, params)

    lam_s = np.empty(n_windows)
    lam_l = np.empty(n_windows)
    curve_sum = None
    for w in range(n_windows):
        lo = w * spst
        att = Attractor(whole.points[lo:lo + n_window_points], params)
        res = rosenstein_divergence(att, spst)
        lam_s[w] = res.lambda_short
        lam_l[w] = res.lambda_long
        curve_sum = res.curve if curve_sum is None else curve_sum + res.curve

    return WindowedLyapunov(
        lambda_short_mean=float(np.mean(lam_s)),
        lambda_short_sd=float(np.std(lam_s, ddof=1)) if n_windows > 1 else 0.0,
        lambda_long_mean=float(np.mean(lam_l)),
        lambda_long_sd=float(np.std(lam_l, ddof=1)) if n_windows > 1 else 0.0,
        per_window_short=lam_s, per_window_long=lam_l,
        mean_curve=curve_sum / n_windows, params=params)
