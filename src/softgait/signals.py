"""Filtering, differentiation and time-normalization primitives.

All analysis stages share these; everything is deterministic and pure.
Units follow the rest of the package: seconds, Hz, and whatever the
underlying channel carries (mm, deg, Nm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs


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
    order.  Same edge handling as scipy.signal.filtfilt: each end is
    extended by an odd reflection of 3 * (order + 1) samples."""
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    nyquist = series.sample_rate / 2.0
    if not 0 < cutoff < nyquist:
        raise ValueError(f"cutoff {cutoff} Hz must lie in (0, {nyquist}) Hz")
    edge = 3 * (order + 1)
    if len(series) <= edge:
        raise ValueError("series too short for requested filter order")
    b, a = _butter_lowpass(order, cutoff / nyquist)
    # each pass starts in the steady state of its first sample
    # (scipy.signal.lfilter_zi): state k holds sum_{j>k} (b_j - gain a_j)
    zi = np.cumsum((b - b.sum() / a.sum() * a)[:0:-1])[::-1]
    x = series.samples
    x = np.concatenate((2 * x[0] - x[edge:0:-1], x,
                        2 * x[-1] - x[-2:-edge - 2:-1]))
    # lower band storage of the Toeplitz matrix with a on its diagonals
    band = np.repeat(a[None, :], len(x), axis=0).T
    y = _causal_pass(b, band, zi, x)
    y = _causal_pass(b, band, zi, y[::-1])[::-1]
    return series.with_samples(y[edge:-edge])


def _butter_lowpass(order: int, wn: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital Butterworth low-pass coefficients (b, a) for a cutoff `wn`
    in units of the Nyquist rate, by scipy.signal.butter's steps: analog
    prototype poles, prewarped cutoff, bilinear transform at fs = 2."""
    poles = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2)
                    / (2 * order))
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    poles = warped * poles
    gain = warped ** order * np.real(1.0 / np.prod(4.0 - poles))
    b = gain * np.poly(-np.ones(order))
    return b, np.poly((4.0 + poles) / (4.0 - poles))


def _causal_pass(b: np.ndarray, band: np.ndarray, zi: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x, zi=zi * x[0]) as one lower-triangular
    banded solve A y = r, with r the FIR part plus the initial state:
    forward substitution, no pivoting.  a[0] is 1, so the diagonal is
    unit and LAPACK skips the division."""
    r = np.convolve(x, b)[:len(x)]
    r[:len(zi)] += zi * x[0]
    y, info = dtbtrs(band, r[:, None], uplo="L", diag="U")
    if info != 0:
        raise RuntimeError(f"banded solve failed: LAPACK info {info}")
    return y[:, 0]


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
    idx = np.arange(len(series))
    # one row per half-open stride [a, b), so strides share no sample
    a, b = events[:n_strides, None], events[1:n_strides + 1, None]
    positions = (a + (b - a) * np.arange(pps) / pps).ravel()
    return TimeSeries(np.interp(positions, idx, series.samples), float(pps))
