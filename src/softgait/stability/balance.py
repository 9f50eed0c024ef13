"""Center-of-mass estimation, foot-strike detection, extrapolated CoM and
margins of stability."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from ..signals import TimeSeries, butterworth_lowpass, finite_difference

GRAVITY = 9.81  # m/s^2
STRIKE_FILTER = (4, 5.0)       # order, cutoff Hz for heel height
STRIKE_PROMINENCE_MM = 5.0     # minimum depth of a foot-strike minimum
STANCE_FORCE_FRACTION = 0.05   # of body weight, stance threshold

PELVIS_MARKERS = ("LASI", "RASI", "LPSI", "RPSI")
AXES = ("ML", "AP", "VT")


class MarkerGapError(ValueError):
    """A required marker has missing (non-finite) frames; no imputation."""


def estimate_com(markers: dict[str, np.ndarray],
                 rate: float) -> dict[str, TimeSeries]:
    """CoM as the per-axis mean of the four pelvis markers (mm)."""
    for name in PELVIS_MARKERS:
        if name not in markers:
            raise MarkerGapError(f"marker {name} missing")
        if not np.all(np.isfinite(markers[name])):
            raise MarkerGapError(f"marker {name} has non-finite frames")
    stack = np.stack([markers[name] for name in PELVIS_MARKERS])
    com = stack.mean(axis=0)
    return {axis: TimeSeries(com[:, k], rate)
            for k, axis in enumerate(AXES)}


def com_velocity(com: dict[str, TimeSeries]) -> dict[str, TimeSeries]:
    """Per-axis CoM velocity by finite differences (units/s)."""
    return {axis: finite_difference(ts) for axis, ts in com.items()}


def detect_foot_strikes(heel_vt: TimeSeries,
                        nominal_stride_s: float) -> np.ndarray:
    """Foot-strikes as prominent local minima of the filtered heel height,
    at least half the nominal stride apart."""
    vt = butterworth_lowpass(heel_vt, *STRIKE_FILTER).samples
    min_dist = max(int(0.5 * nominal_stride_s * heel_vt.sample_rate), 1)
    peaks, _ = find_peaks(-vt, prominence=STRIKE_PROMINENCE_MM,
                          distance=min_dist)
    if len(peaks) == 0:
        raise ValueError("no foot-strike minima found")
    return peaks


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
