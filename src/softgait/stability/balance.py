"""Center-of-mass estimation, foot-strike detection, extrapolated CoM and
margins of stability."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..io import AXES, GRAVITY, PELVIS_MARKERS
from ..signals import TimeSeries, butterworth_lowpass, finite_difference

STRIKE_FILTER = (4, 5.0)       # order, cutoff Hz for heel height
STRIKE_PROMINENCE_MM = 5.0     # minimum depth of a foot-strike minimum
STANCE_FORCE_FRACTION = 0.05   # of body weight, stance threshold


class MarkerGapError(ValueError):
    """A required marker has missing (non-finite) frames; no imputation."""


def marker(markers: dict[str, np.ndarray], name: str) -> np.ndarray:
    """markers[name], refused when it is missing or has a gap."""
    if name not in markers:
        raise MarkerGapError(f"marker {name} missing")
    if not np.all(np.isfinite(markers[name])):
        raise MarkerGapError(f"marker {name} has non-finite frames")
    return markers[name]


def estimate_com(markers: dict[str, np.ndarray],
                 rate: float) -> dict[str, TimeSeries]:
    """CoM as the per-axis mean of the four pelvis markers (mm)."""
    stack = np.stack([marker(markers, name) for name in PELVIS_MARKERS])
    com = stack.mean(axis=0)
    return {axis: TimeSeries(com[:, k], rate)
            for k, axis in enumerate(AXES)}


def com_velocity(com: dict[str, TimeSeries]) -> dict[str, TimeSeries]:
    """Per-axis CoM velocity by finite differences (units/s)."""
    return {axis: finite_difference(ts) for axis, ts in com.items()}


def detect_foot_strikes(heel_vt: TimeSeries,
                        nominal_stride_s: float) -> np.ndarray:
    """Foot-strikes as prominent local minima of the filtered heel height,
    at least a quarter of the nominal stride apart."""
    vt = butterworth_lowpass(heel_vt, *STRIKE_FILTER).samples
    min_dist = max(int(0.25 * nominal_stride_s * heel_vt.sample_rate), 1)
    peaks = _find_peaks(-vt, STRIKE_PROMINENCE_MM, min_dist)
    if len(peaks) == 0:
        raise ValueError("no foot-strike minima found")
    return peaks


def _find_peaks(x: np.ndarray, prominence: float,
                distance: float) -> np.ndarray:
    """scipy.signal.find_peaks(x, prominence=, distance=)[0]: the local
    maxima of `x` left after thinning to `distance` samples apart, highest
    first, that rise at least `prominence` over their base.  A peak's base
    is the higher of the minima of `x` between it and the nearest sample
    above it on each side, or the signal's end when there is none."""
    # a strict rise, an optional plateau, then a strict fall; a plateau
    # counts at its middle
    slope = (x[1:] > x[:-1]).astype(np.int8) - (x[1:] < x[:-1])
    turns = np.flatnonzero(slope)
    top = np.flatnonzero((slope[turns[:-1]] > 0) & (slope[turns[1:]] < 0))
    peaks = (turns[top] + 1 + turns[top + 1]) // 2

    # from the highest peak down (in np.argsort's order, as scipy), drop
    # the peaks closer than `distance` to one kept
    distance = math.ceil(distance)
    lo = np.searchsorted(peaks, peaks - distance, side="right").tolist()
    hi = np.searchsorted(peaks, peaks + distance, side="left").tolist()
    keep = np.ones(len(peaks), dtype=bool)
    for j in np.argsort(x[peaks])[::-1].tolist():
        if keep[j]:
            keep[lo[j]:j] = False
            keep[j + 1:hi[j]] = False

    # on each side, the samples from the first one above a peak out to
    # the nearest local maximum above it are all above the peak, so the
    # side's minimum may run out to that maximum, or to the signal's end
    at, heights = peaks.tolist(), x[peaks].tolist()
    left = _nearest_above(at, heights, 0)
    right = _nearest_above(at[::-1], heights[::-1], len(x) - 1)[::-1]
    bases = [max(x[a:p + 1].min(), x[p:b + 1].min())
             for a, p, b, kept in zip(left, at, right, keep) if kept]
    peaks = peaks[keep]
    return peaks[x[peaks] - np.array(bases) >= prominence]


def _nearest_above(at: list[int], heights: list[float],
                   default: int) -> list[int]:
    """For each position of `at` in turn, the nearest earlier one with a
    greater height, or `default`; the stack holds those not yet topped."""
    out, stack = [], []
    for p, h in zip(at, heights):
        while stack and stack[-1][1] <= h:
            stack.pop()
        out.append(stack[-1][0] if stack else default)
        stack.append((p, h))
    return out


def pendulum_length(com: dict[str, TimeSeries], heel: np.ndarray,
                    events: np.ndarray) -> float:
    """Mean CoM-to-heel Euclidean distance at foot-strikes, in meters."""
    com_xyz = np.stack([com[a].samples for a in AXES], axis=1)
    d = np.linalg.norm(com_xyz[events] - heel[events], axis=1)
    return float(np.mean(d)) / 1000.0


def pendulum_eigenfrequency(length_m: float) -> float:
    if not length_m > 0:
        raise ValueError("pendulum length must be positive")
    return float(np.sqrt(GRAVITY / length_m))


def xcom(com: dict[str, TimeSeries], com_vel: dict[str, TimeSeries],
         length_m: float) -> dict[str, TimeSeries]:
    """Extrapolated CoM: position plus velocity over the pendulum
    eigenfrequency, for the ML and AP axes (mm)."""
    w0 = pendulum_eigenfrequency(length_m)
    out = {}
    for axis in ("ML", "AP"):
        p, v = com[axis], com_vel[axis]
        out[axis] = p.with_samples(p.samples + v.samples / w0)
    return out


@dataclass
class MosResult:
    per_cycle: np.ndarray     # mm, one value per analyzed gait cycle
    skipped: list[int] = field(default_factory=list)  # cycles without stance

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_cycle)) if len(self.per_cycle) else np.nan

    @property
    def sd(self) -> float:
        return float(np.std(self.per_cycle, ddof=1)) \
            if len(self.per_cycle) > 1 else 0.0


def _mos(xcom_axis: TimeSeries, cop_axis: np.ndarray, stance: np.ndarray,
         events: np.ndarray, extreme) -> MosResult:
    values = []
    skipped = []
    for k in range(len(events) - 1):
        frames = np.arange(events[k], events[k + 1])
        frames = frames[stance[frames]]
        if len(frames) == 0:
            skipped.append(k)
            continue
        gap = np.abs(cop_axis[frames] - xcom_axis.samples[frames])
        values.append(extreme(gap))
    return MosResult(np.asarray(values, dtype=float), skipped)


def mos_ml(xcom_ml: TimeSeries, cop_ml: np.ndarray, stance: np.ndarray,
           events: np.ndarray) -> MosResult:
    """Per-cycle minimum mediolateral |CoP - XcoM| over stance frames."""
    return _mos(xcom_ml, cop_ml, stance, events, np.min)


def mos_ap(xcom_ap: TimeSeries, cop_ap: np.ndarray, stance: np.ndarray,
           events: np.ndarray) -> MosResult:
    """Per-cycle maximum anteroposterior |CoP - XcoM| over stance frames."""
    return _mos(xcom_ap, cop_ap, stance, events, np.max)


def stance_frames(vertical_force: np.ndarray,
                  body_weight_n: float) -> np.ndarray:
    """Stance mask: vertical force above a body-weight fraction."""
    return vertical_force > STANCE_FORCE_FRACTION * body_weight_n
