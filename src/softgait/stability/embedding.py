"""Delay-embedding parameter selection (mutual-information delay, false
nearest neighbors) and attractor construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..signals import TimeSeries


FNN_RATIO_TOL = 15.0    # Kennel's first criterion: extra/pair distance
FNN_SIZE_TOL = 2.0      # Kennel's second criterion: distance/attractor size
FNN_THRESHOLD = 0.01    # FNN fraction at which a dimension is accepted


class NoMinimumError(ValueError):
    """Mutual information has no local minimum within the searched lags."""


@dataclass
class EmbeddingParams:
    tau: int
    dim: int

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")


def _rank_bins(order: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign each sample to one of n_bins equally populated bins, given
    the samples' stable sort order.

    Rank-based, so the assignment (and everything built on it) is
    invariant under any strictly monotone rescaling of the data.
    """
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return (ranks * n_bins) // len(order)


def ami_curve(series: TimeSeries, max_lag: int, n_bins: int = 32) -> np.ndarray:
    """Mutual information in bits between x[:n - lag] and x[lag:] for lags
    0..max_lag, via equiprobable (quantile) binning of each slice.

    The series is sorted once: keeping the indices of a slice from a
    stable order of the whole series gives the stable order of the slice.
    """
    x = series.samples
    n = len(x)
    order = np.argsort(x, kind="stable")
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        bx = _rank_bins(order[order < n - lag], n_bins)
        by = _rank_bins(order[order >= lag] - lag, n_bins)
        joint = np.bincount(bx * n_bins + by, minlength=n_bins * n_bins)
        joint = joint.reshape(n_bins, n_bins) / (n - lag)
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        denom = np.outer(px, py)[nz]
        out[lag] = np.sum(joint[nz] * np.log2(joint[nz] / denom))
    return out


def ami_delay(series: TimeSeries, max_lag: int, n_bins: int = 32) -> int:
    """Embedding delay: first local minimum of average mutual information.

    Raises NoMinimumError when the curve never turns upward within
    max_lag; callers fall back to a configured default.
    """
    if len(series) < 10 * max_lag:
        raise ValueError("series too short for requested max_lag")
    curve = ami_curve(series, max_lag, n_bins)
    for lag in range(1, max_lag):
        if curve[lag] < curve[lag - 1] and curve[lag] <= curve[lag + 1]:
            return lag
    raise NoMinimumError(f"no AMI minimum within {max_lag} lags")


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> np.ndarray:
    """Stack lagged copies: point i = [s(i), s(i+tau), ..., s(i+(d-1)tau)],
    as an (n_points, dim) array."""
    x = series.samples
    tau, dim = params.tau, params.dim
    if len(x) - (dim - 1) * tau < 1:
        raise ValueError(
            f"series of length {len(x)} too short for tau={tau}, dim={dim}")
    return _embed_raw(x, tau, dim)


def _embed_raw(x: np.ndarray, tau: int, dim: int) -> np.ndarray:
    """Lagged copies of x as columns; unlike EmbeddingParams, allows dim 1."""
    n_points = len(x) - (dim - 1) * tau
    return np.stack([x[k * tau:k * tau + n_points] for k in range(dim)], axis=1)


def fnn_dimension(series: TimeSeries, tau: int,
                  max_dim: int) -> tuple[int, bool]:
    """Smallest embedding dimension with FNN fraction below FNN_THRESHOLD.

    A neighbor pair in dimension d is false when the extra coordinate at
    d+1 either blows up relative to the pair distance (FNN_RATIO_TOL) or
    relative to the attractor size (Kennel's second criterion,
    FNN_SIZE_TOL).  Dimensions are tried from 1 up and the search stops
    at the first accepted one, which is reported as at least 2.

    Returns (dim, saturated); saturated means no dimension up to max_dim,
    or up to the last one the series is long enough to test, was
    accepted, and max_dim was returned instead.
    """
    x = series.samples
    attractor_size = float(np.std(x))
    for dim in range(1, max_dim + 1):
        # neighbors must have a (d+1)-th coordinate available
        usable = len(x) - dim * tau
        if usable < 2:
            break
        pts = _embed_raw(x, tau, dim)[:usable]
        dist, idx = cKDTree(pts).query(pts, k=2, workers=-1)
        dist, idx = dist[:, 1], idx[:, 1]
        i = np.arange(usable)
        extra = np.abs(x[i + dim * tau] - x[idx + dim * tau])
        nonzero = dist > 0
        ratio_false = np.zeros(usable, dtype=bool)
        ratio_false[nonzero] = extra[nonzero] / dist[nonzero] > FNN_RATIO_TOL
        ratio_false[~nonzero] = extra[~nonzero] > 0
        new_dist = np.hypot(dist, extra)
        size_false = new_dist / attractor_size > FNN_SIZE_TOL
        if np.mean(ratio_false | size_false) < FNN_THRESHOLD:
            return max(dim, 2), False
    return max_dim, True
