"""Center-of-mass estimation, foot-strike detection, extrapolated CoM and
margins of stability."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..io import AXES, GRAVITY, PELVIS_MARKERS
from ..signals import TimeSeries, butterworth_lowpass, finite_difference

STRIKE_FILTER = (4, 5.0)       # order, cutoff Hz for heel height
STANCE_FORCE_FRACTION = 0.05   # of body weight, stance threshold
# s, the shortest stance run and the shortest swing gap that the force
# channel keeps; shorter ones are noise crossing the threshold.  It is also
# the width of the window searched for a strike before each stance onset:
# after the debounce, onsets are at least 2 * MIN_PHASE_S apart, so the
# windows never overlap and strikes strictly increase.
MIN_PHASE_S = 0.1


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


def stance_onsets(stance: np.ndarray) -> np.ndarray:
    """The frames where a stance run begins; stance at frame 0 has none."""
    return np.flatnonzero(stance[1:] & ~stance[:-1]) + 1


def detect_foot_strikes(heel_vt: TimeSeries,
                        stance: np.ndarray) -> np.ndarray:
    """One foot-strike per stance onset: the frame of the lowest filtered
    heel height in the MIN_PHASE_S up to and including the onset.  An
    onset with less than a whole window before it is not a strike."""
    vt = butterworth_lowpass(heel_vt, *STRIKE_FILTER).samples
    width = round(MIN_PHASE_S * heel_vt.sample_rate)
    onsets = stance_onsets(stance)
    onsets = onsets[onsets >= width]
    if len(onsets) == 0:
        raise ValueError("no foot strikes: no stance onset in the force "
                         "channel")
    windows = onsets[:, None] + np.arange(-width, 1)
    return onsets - width + np.argmin(vt[windows], axis=1)


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


def stance_frames(vertical_force: np.ndarray, body_weight_n: float,
                  rate: float) -> tuple[np.ndarray, dict[str, int]]:
    """Stance mask: vertical force above a body-weight fraction, less the
    stance runs shorter than MIN_PHASE_S, then with the swing gaps shorter
    than MIN_PHASE_S between two stance runs closed.  Also returns how
    many runs were dropped and gaps closed."""
    shortest = round(MIN_PHASE_S * rate)
    above = vertical_force > STANCE_FORCE_FRACTION * body_weight_n
    start, end = np.flatnonzero(np.diff(above, prepend=False,
                                        append=False)).reshape(-1, 2).T
    long = end - start >= shortest
    start, end = start[long], end[long]
    gaps = np.flatnonzero(start[1:] - end[:-1] < shortest)
    start, end = np.delete(start, gaps + 1), np.delete(end, gaps)
    steps = np.zeros(len(above) + 1, dtype=np.int8)
    steps[start], steps[end] = 1, -1
    counts = {"runs_dropped": int(np.sum(~long)), "gaps_closed": len(gaps)}
    return np.cumsum(steps[:-1]) > 0, counts
