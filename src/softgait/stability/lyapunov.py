"""Divergence-exponent estimation: nearest-neighbor tracking over a
horizon of HORIZON_STRIDES strides and least-squares slopes of the mean
log-distance curve over strides 0-1 and 4 to the horizon (per-stride
units)."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from ..signals import TimeSeries, time_normalize
from .embedding import (EmbeddingParams, NoMinimumError, ami_delay,
                        delay_embed, fnn_dimension)

_LOG_FLOOR = 1e-300
HORIZON_STRIDES = 10   # strides each neighbor pair is tracked for
MAX_LAG = 30           # AMI lags searched for the embedding delay
FALLBACK_TAU = 10      # delay used when AMI has no minimum within MAX_LAG
MAX_DIM = 8            # largest embedding dimension FNN may return
SHARED_K = 16          # nearest candidates per row in the windows' search
# neighbor pairs tracked at once; kept small because each worker thread's
# malloc arena holds on to the largest chunk temporaries it has seen
PAIR_CHUNK = 64


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


def _first_valid(rows: np.ndarray, cand: np.ndarray, theiler: int,
                 lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """First candidate per row (columns sorted by distance) that lies in
    base rows [lo, hi) and outside the row's Theiler band; returns
    (found, neighbor)."""
    ok = ((np.abs(cand - rows[:, None]) > theiler)
          & (cand >= lo) & (cand < hi))
    first = np.argmax(ok, axis=1)
    pick = np.arange(len(rows))
    return ok[pick, first], cand[pick, first]


def _own_neighbors(base: np.ndarray, rows: np.ndarray, theiler: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbor of base[rows] among all of base, outside the
    Theiler band.  The band holds at most 2 * theiler + 1 rows, so the
    2 * theiler + 2 nearest candidates always reach past it."""
    k = min(2 * theiler + 2, len(base))
    _, idx = cKDTree(base).query(base[rows], k=k, workers=-1)
    return _first_valid(rows, idx.reshape(len(rows), k), theiler,
                        0, len(base))


def _log_distances(series: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray,
                   tau: int, dim: int, horizon: int) -> np.ndarray:
    """ln distance of each delay-vector pair (i, j) at steps 0..horizon,
    from sliding windows on the scalar series the vectors were built from
    instead of per-step gathers."""
    win = sliding_window_view(series, horizon + 1 + (dim - 1) * tau)
    d2 = win[i_idx] - win[j_idx]
    np.square(d2, out=d2)
    tot = d2[:, :horizon + 1] + d2[:, tau:tau + horizon + 1]
    for m in range(2, dim):
        tot += d2[:, m * tau:m * tau + horizon + 1]
    np.sqrt(tot, out=tot)
    np.maximum(tot, _LOG_FLOOR, out=tot)
    return np.log(tot, out=tot)


def _pair_runs(table: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]:
    """Runs of consecutive windows that chose the same neighbor pair.

    Row w + 1 of `table` holds window w's neighbor of each base row, -1
    where the window has none; its first and last rows are all -1.
    Returns (first, stop, i, j): windows [first, stop) chose pair (i, j).
    """
    change = table[1:] != table[:-1]
    # per row i, in window order, a run starts where the choice changes to
    # a neighbor and stops where it changes away from one; transposed, the
    # k-th start and the k-th stop belong to the same run
    i_idx, first = np.nonzero((change & (table[1:] >= 0)).T)
    _, stop = np.nonzero((change & (table[:-1] >= 0)).T)
    return first, stop, i_idx, table[first + 1, i_idx]


def _check_length(n: int, samples_per_stride: int) -> None:
    if n <= (HORIZON_STRIDES + 1) * samples_per_stride:
        raise ValueError("attractor too short for the requested horizon")


def rosenstein_divergence(pts: np.ndarray,
                          samples_per_stride: int) -> DivergenceResult:
    """Track each point of an (n, dim) attractor's nearest neighbor
    (outside a one-stride Theiler window) for HORIZON_STRIDES strides and
    average the log distances."""
    n = len(pts)
    _check_length(n, samples_per_stride)
    horizon = HORIZON_STRIDES * samples_per_stride
    n_track = n - horizon       # points with a full future horizon
    rows = np.arange(n_track)
    has, nbr = _own_neighbors(pts[:n_track], rows, samples_per_stride)
    i_idx = rows[has]
    j_idx = nbr[has]
    if len(i_idx) < 10:
        raise ValueError("fewer than 10 valid neighbor pairs")

    curve = np.empty(horizon + 1)
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
                      window_strides: int, n_windows: int,
                      points_per_window: int,
                      params: EmbeddingParams | None = None
                      ) -> WindowedLyapunov:
    """Divergence exponents over overlapping windows of strides.

    Window w covers strides [w, w + window_strides); each window is
    time-normalized to `points_per_window` samples, embedded, and analyzed
    as rosenstein_divergence analyzes one attractor; means and standard
    deviations are taken across windows.  Embedding parameters are
    estimated once on the first window (or passed in).

    Time normalization maps each stride onto its own samples, so every
    window's normalized series, and its delay vectors, are an exact slice
    of one normalization and embedding of all the windowed strides.  The
    windows therefore share one neighbor search over the union of their
    base points.  A neighbor pair is tracked once for each run of
    consecutive windows that chose it, in worker threads, and its log
    distances are summed into those windows in a fixed order.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be at least 1, got {n_windows}")
    events = np.asarray(events, dtype=int)
    total_strides = window_strides + n_windows - 1
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
    _check_length(n_window_points, spst)
    whole = delay_embed(normalized, params)
    horizon = HORIZON_STRIDES * spst
    n_track = n_window_points - horizon   # base points per window

    # Window w's base points are rows [w*spst, w*spst + n_track) of the
    # union.  Candidates come sorted by distance, so the first one inside
    # the window and outside the Theiler band is the window's own nearest
    # neighbor; rows without one fall back to the window's own search.
    union = whole[:(n_windows - 1) * spst + n_track]
    k = min(SHARED_K, len(union))
    _, cand = cKDTree(union).query(union, k=k, workers=-1)
    cand = cand.reshape(len(union), k)
    table = np.full((n_windows + 2, len(union)), -1)
    n_pairs = np.empty(n_windows)
    for w in range(n_windows):
        lo, hi = w * spst, w * spst + n_track
        rows = np.arange(lo, hi)
        has, nbr = _first_valid(rows, cand[lo:hi], spst, lo, hi)
        miss = np.flatnonzero(~has)
        if len(miss):
            has[miss], nbr_own = _own_neighbors(union[lo:hi], miss, spst)
            nbr[miss] = nbr_own + lo
        n_pairs[w] = np.count_nonzero(has)
        if n_pairs[w] < 10:
            raise ValueError("fewer than 10 valid neighbor pairs")
        table[w + 1, rows[has]] = nbr[has]

    # Runs with the same windows form a group; each group's pairs are
    # summed chunk by chunk on worker threads (numpy releases the GIL) and
    # added to its windows once.  Chunks are fixed and their sums consumed
    # in submission order, so the bits do not depend on the worker count.
    first, stop, i_idx, j_idx = _pair_runs(table)
    order = np.lexsort((stop, first))
    first, stop, i_idx, j_idx = (first[order], stop[order], i_idx[order],
                                 j_idx[order])
    new_group = np.flatnonzero((np.diff(first) != 0) | (np.diff(stop) != 0))
    bounds = np.concatenate(([0], new_group + 1, [len(first)]))
    chunks = [slice(lo, min(lo + PAIR_CHUNK, hi))
              for lo0, hi in zip(bounds[:-1], bounds[1:])
              for lo in range(lo0, hi, PAIR_CHUNK)]

    def chunk_sum(sl: slice) -> np.ndarray:
        return _log_distances(normalized.samples, i_idx[sl], j_idx[sl],
                              params.tau, params.dim, horizon).sum(axis=0)

    sums = np.zeros((n_windows, horizon + 1))
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        done = pool.map(chunk_sum, chunks)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            total = next(done)
            for _ in range(lo + PAIR_CHUNK, hi, PAIR_CHUNK):
                total += next(done)
            sums[first[lo]:stop[lo]] += total
    curves = sums / n_pairs[:, None]

    lam_s = np.array([_slope(c, spst, 0.0, 1.0) for c in curves])
    lam_l = np.array([_slope(c, spst, 4.0, HORIZON_STRIDES) for c in curves])
    return WindowedLyapunov(
        lambda_short_mean=float(np.mean(lam_s)),
        lambda_short_sd=float(np.std(lam_s, ddof=1)) if n_windows > 1 else 0.0,
        lambda_long_mean=float(np.mean(lam_l)),
        lambda_long_sd=float(np.std(lam_l, ddof=1)) if n_windows > 1 else 0.0,
        per_window_short=lam_s, per_window_long=lam_l,
        mean_curve=curves.sum(axis=0) / n_windows, params=params)
