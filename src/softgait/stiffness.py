"""Gait-cycle segmentation, cycle averaging, and moment-angle slope
(quasi-stiffness) extraction over mid and terminal stance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (TimeSeries, butterworth_lowpass, finite_difference,
                      time_normalize)

PROSTHESIS_FILTER = (2, 5.0)  # order, cutoff Hz for moment/angle profiles
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


def segment_cycles(signals: dict[str, TimeSeries],
                   foot_strikes: np.ndarray) -> dict[str, np.ndarray]:
    """Each signal's [strike_k, strike_{k+1}) cycles, time-normalized to
    POINTS_PER_CYCLE samples: name -> (n_cycles, POINTS_PER_CYCLE)."""
    k = len(foot_strikes) - 1
    if k < 1:
        raise ValueError("need at least two foot-strikes")
    return {name: time_normalize(ts, foot_strikes, k, k * POINTS_PER_CYCLE)
            .samples.reshape(k, POINTS_PER_CYCLE)
            for name, ts in signals.items()}


def prosthesis_cycles(q: TimeSeries, moment: TimeSeries,
                      foot_strikes: np.ndarray) -> dict[str, np.ndarray]:
    """Filtered angle ("q"), moment ("M") and angular velocity ("qdot"),
    the derivative of the filtered angle filtered again, cut into cycles."""
    q_f = butterworth_lowpass(q, *PROSTHESIS_FILTER)
    qdot_f = butterworth_lowpass(finite_difference(q_f), *PROSTHESIS_FILTER)
    return segment_cycles(
        {"q": q_f, "M": butterworth_lowpass(moment, *PROSTHESIS_FILTER),
         "qdot": qdot_f}, foot_strikes)


def average_cycle(cycles: dict[str, np.ndarray]) -> CycleAverage:
    """Pointwise mean of the moment ("M") and angle ("q") cycles."""
    if len(cycles["q"]) == 0:
        raise ValueError("no cycles to average")
    return CycleAverage(cycles["M"].mean(axis=0), cycles["q"].mean(axis=0))


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
