"""Gait-cycle segmentation, cycle averaging, and moment-angle slope
(quasi-stiffness) extraction over mid and terminal stance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POINTS_PER_CYCLE = 100
STANCE_FRACTION = 0.60     # of the gait cycle, from foot-strike
WINDOW_START = 0.20        # of stance (end of loading response)
WINDOW_END = 0.85          # of stance (start of pre-swing)
REGRESSION_WIDTH = 0.05    # of stance, sliding-fit window
PLATEAU_TOL_DEG = 1e-3


@dataclass
class CycleAverage:
    mean_moment: np.ndarray   # Nm, length POINTS_PER_CYCLE
    mean_angle: np.ndarray    # deg

    def __post_init__(self):
        if len(self.mean_moment) != len(self.mean_angle):
            raise ValueError("profiles must have equal length")


def segment_cycles(signals: dict[str, np.ndarray],
                   foot_strikes: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Slice each signal into [strike_k, strike_{k+1}) cycles, resampled to
    POINTS_PER_CYCLE samples."""
    foot_strikes = np.asarray(foot_strikes, dtype=int)
    if len(foot_strikes) < 2:
        raise ValueError("need at least two foot-strikes")
    cycles = []
    u = np.arange(POINTS_PER_CYCLE) / POINTS_PER_CYCLE
    for k in range(len(foot_strikes) - 1):
        a, b = foot_strikes[k], foot_strikes[k + 1]
        pos = a + (b - a) * u
        idx = np.arange(a, b + 1)
        cycles.append({name: np.interp(pos, idx, sig[a:b + 1])
                       for name, sig in signals.items()})
    return cycles


def average_cycle(cycles: list[dict[str, np.ndarray]]) -> CycleAverage:
    """Pointwise mean of the moment ("M") and angle ("q") profiles across
    cycles."""
    if len(cycles) == 0:
        raise ValueError("no cycles to average")
    moment = np.mean([c["M"] for c in cycles], axis=0)
    angle = np.mean([c["q"] for c in cycles], axis=0)
    return CycleAverage(moment, angle)


@dataclass
class StiffnessProfile:
    stance_percent: np.ndarray     # [20, 85] window, percent of stance
    stiffness: np.ndarray          # Nm/deg; NaN where the angle plateaus

    def terminal_value(self, at_percent: float = 60.0) -> float:
        """Profile value nearest to the requested stance percent."""
        i = int(np.argmin(np.abs(self.stance_percent - at_percent)))
        return float(self.stiffness[i])


def quasi_stiffness(avg: CycleAverage) -> StiffnessProfile:
    """Instantaneous moment-angle slope over 20-85% of stance.

    Centered sliding-window linear regression (window 5% of stance) on the
    averaged profiles; windows where the angle stays within the plateau
    tolerance are left NaN rather than extrapolated.
    """
    n = len(avg.mean_moment)
    stance_n = int(round(STANCE_FRACTION * n))
    if stance_n < 3:
        raise ValueError("cycle profile too short for a stance segment")
    q = avg.mean_angle[:stance_n]
    m = avg.mean_moment[:stance_n]
    half = max(int(round(REGRESSION_WIDTH * stance_n / 2)), 1)
    i0 = int(round(WINDOW_START * stance_n))
    i1 = int(round(WINDOW_END * stance_n))
    centers = np.arange(i0, i1 + 1)
    stiffness = np.full(len(centers), np.nan)
    for out_i, c in enumerate(centers):
        lo, hi = max(c - half, 0), min(c + half + 1, stance_n)
        qw, mw = q[lo:hi], m[lo:hi]
        if np.ptp(qw) < PLATEAU_TOL_DEG:
            continue
        stiffness[out_i] = np.polyfit(qw, mw, 1)[0]
    stance_percent = centers / stance_n * 100.0
    return StiffnessProfile(stance_percent, stiffness)
