"""Filtering, differentiation and time-normalization primitives.

All analysis stages share these; everything is deterministic and pure.
Units follow the rest of the package: seconds, Hz, and whatever the
underlying channel carries (mm, deg, Nm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, filtfilt


@dataclass
class TimeSeries:
    """A uniformly sampled scalar signal."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain NaN or Inf")

    def __len__(self):
        return len(self.samples)

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        return TimeSeries(samples, self.sample_rate)


def butterworth_lowpass(series: TimeSeries, order: int,
                        cutoff: float) -> TimeSeries:
    """Zero-phase low-pass Butterworth filter with unit DC gain: applied
    forward and backward, so no net phase shift and doubled effective
    order."""
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    nyquist = series.sample_rate / 2.0
    if not 0 < cutoff < nyquist:
        raise ValueError(f"cutoff {cutoff} Hz must lie in (0, {nyquist}) Hz")
    if len(series) < 3 * order:
        raise ValueError("series too short for requested filter order")
    b, a = butter(order, cutoff / nyquist, btype="low")
    return series.with_samples(filtfilt(b, a, series.samples))


def moving_average(series: TimeSeries, window: int) -> TimeSeries:
    """Trailing moving average; the first window-1 samples use partial windows."""
    n = len(series)
    if not 1 <= window <= n:
        raise ValueError(f"window must be in [1, {n}], got {window}")
    c = np.concatenate(([0.0], np.cumsum(series.samples)))
    idx = np.arange(n)
    lo = np.maximum(idx - window + 1, 0)
    out = (c[idx + 1] - c[lo]) / (idx + 1 - lo)
    return series.with_samples(out)


def finite_difference(series: TimeSeries) -> TimeSeries:
    """Numerical derivative: central differences interior, one-sided at the ends."""
    if len(series) < 2:
        raise ValueError("need at least 2 samples to differentiate")
    return series.with_samples(np.gradient(series.samples, series.dt))


def time_normalize(series: TimeSeries, events: np.ndarray, n_strides: int,
                   n_points: int) -> TimeSeries:
    """Map the first `n_strides` strides onto a fixed grid of `n_points` samples.

    Each stride (between consecutive events) becomes n_points/n_strides
    samples via linear interpolation on the sample-index axis.  The output
    sample rate is expressed in points per stride.
    """
    events = np.asarray(events, dtype=int)
    if np.any(np.diff(events) <= 0):
        raise ValueError("events must be strictly increasing")
    if len(events) < n_strides + 1:
        raise ValueError(
            f"need at least {n_strides + 1} events, got {len(events)}")
    if n_points % n_strides != 0:
        raise ValueError("n_points must be divisible by n_strides")
    pps = n_points // n_strides
    boundaries = events[:n_strides + 1]
    idx = np.arange(len(series))
    positions = np.empty(n_points)
    for k in range(n_strides):
        a, b = boundaries[k], boundaries[k + 1]
        # half-open stride [a, b) so strides concatenate without duplicates
        positions[k * pps:(k + 1) * pps] = a + (b - a) * np.arange(pps) / pps
    return TimeSeries(np.interp(positions, idx, series.samples), float(pps))
