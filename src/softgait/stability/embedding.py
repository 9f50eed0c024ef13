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


@dataclass
class Attractor:
    points: np.ndarray     # (n_points, dim)
    params: EmbeddingParams


def _quantile_bins(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign each sample to one of n_bins equally populated bins.

    Rank-based, so the assignment (and everything built on it) is
    invariant under any strictly monotone rescaling of the data.
    """
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.int64)
    ranks[order] = np.arange(len(x))
    return (ranks * n_bins) // len(x)


def mutual_information(x: np.ndarray, y: np.ndarray, n_bins: int = 32) -> float:
    """Mutual information in bits via equiprobable (quantile) binning."""
    bx = _quantile_bins(x, n_bins)
    by = _quantile_bins(y, n_bins)
    joint = np.bincount(bx * n_bins + by, minlength=n_bins * n_bins)
    joint = joint.reshape(n_bins, n_bins) / len(x)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    denom = np.outer(px, py)[nz]
    return float(np.sum(joint[nz] * np.log2(joint[nz] / denom)))


def ami_curve(series: TimeSeries, max_lag: int, n_bins: int = 32) -> np.ndarray:
    x = series.samples
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        if lag == 0:
            out[0] = mutual_information(x, x, n_bins)
        else:
            out[lag] = mutual_information(x[:-lag], x[lag:], n_bins)
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


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> Attractor:
    """Stack lagged copies: point i = [s(i), s(i+tau), ..., s(i+(d-1)tau)]."""
    x = series.samples
    tau, dim = params.tau, params.dim
    if len(x) - (dim - 1) * tau < 1:
        raise ValueError(
            f"series of length {len(x)} too short for tau={tau}, dim={dim}")
    return Attractor(_embed_raw(x, tau, dim), params)


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
