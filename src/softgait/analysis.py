"""Whole-trial analysis: foot-strikes, windowed divergence exponents,
margins of stability, and quasi-stiffness, aggregated into a report
dictionary; `stability.stats` compares reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .io import AXES, GRAVITY, HEEL_MARKER, TrialRecording, is_finite, is_int
from .signals import TimeSeries, butterworth_lowpass, moving_average
from .stability.balance import (com_velocity, detect_foot_strikes,
                                estimate_com, marker, mos_ap, mos_ml,
                                pendulum_eigenfrequency, pendulum_length,
                                stance_frames, stance_onsets, xcom)
from .stability.embedding import EmbeddingParams
from .stability.lyapunov import windowed_lyapunov
# perfbench's TARGETS traces softgait.analysis.compare_reports, so the
# name stays here; `compare` imports it from stability.stats
from .stability.stats import compare_reports  # noqa: F401
from .stiffness import average_cycle, prosthesis_cycles, quasi_stiffness

LYAPUNOV_FILTER = (2, 10.0)   # order, cutoff Hz for divergence CoM
MOS_FILTER = (4, 5.0)         # order, cutoff Hz for MOS kinematics
COP_WINDOW = 0.1              # s, trailing moving average of CoP


@dataclass
class AnalysisSettings:
    exclude_strides: int = 25
    window_strides: int = 150
    n_windows: int = 25
    points_per_window: int = 15000
    # a report's "embedding" block: axis -> {"tau": int, "dim": int}
    embedding_overrides: dict | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and not is_int(value):
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
        if self.exclude_strides < 0:
            raise ValueError("exclude_strides must be non-negative, got "
                             f"{self.exclude_strides}")
        for name in ("window_strides", "n_windows", "points_per_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        overrides = self.embedding_overrides
        if overrides is None:
            return
        shape = '{"tau": int, "dim": int}, as in a report\'s embedding block'
        if not isinstance(overrides, dict):
            raise TypeError(f"embedding_overrides must map axes to {shape}, "
                            f"got {overrides!r}")
        keys = {f.name for f in fields(EmbeddingParams)}
        for axis, block in overrides.items():
            if axis not in AXES:
                raise ValueError(f"embedding_overrides: unknown axis {axis!r}")
            if not (isinstance(block, dict) and block.keys() == keys
                    and all(map(is_int, block.values()))):
                raise TypeError(f"embedding_overrides[{axis!r}] must be "
                                f"{shape}, got {block!r}")
            EmbeddingParams(**block)


def _positive_meta(meta: dict, key: str) -> float:
    value = meta.get(key)
    if not (is_finite(value) and value > 0):
        raise ValueError(f"recording meta needs a positive {key}, "
                         f"got {value!r}")
    return value


def analyze_trial(rec: TrialRecording,
                  settings: AnalysisSettings | None = None) -> dict:
    if settings is None:
        settings = AnalysisSettings()
    rate = rec.rate
    body_weight = _positive_meta(rec.meta, "body_mass") * GRAVITY
    cops = {"left": rec.cop_left, "right": rec.cop_right}
    stance, stance_counts = {}, {}
    for side, cop in cops.items():
        if not np.all(np.isfinite(cop)):
            raise ValueError(f"cop_{side} has non-finite frames")
        stance[side], stance_counts[side] = stance_frames(
            cop[:, 2], body_weight, rate)

    heel = marker(rec.markers, HEEL_MARKER)
    strikes = detect_foot_strikes(TimeSeries(heel[:, 2], rate),
                                  stance["left"])
    n_strides = max(len(strikes) - 1 - settings.exclude_strides, 0)
    need = settings.window_strides + settings.n_windows - 1
    if n_strides < need:
        raise ValueError(
            f"need {need} strides, have {n_strides} ({len(strikes)} foot "
            f"strikes detected give {len(strikes) - 1} strides; "
            f"exclude_strides skips the first {settings.exclude_strides})")
    events = strikes[settings.exclude_strides:]

    # windowed divergence exponents on filtered CoM velocities
    com_raw = estimate_com(rec.markers, rate)
    com_lyap = {a: butterworth_lowpass(ts, *LYAPUNOV_FILTER)
                for a, ts in com_raw.items()}
    vel_lyap = com_velocity(com_lyap)
    lam = {}
    for axis in AXES:
        override = (settings.embedding_overrides or {}).get(axis)
        params = EmbeddingParams(**override) if override else None
        res = windowed_lyapunov(vel_lyap[axis], events,
                                settings.window_strides, settings.n_windows,
                                settings.points_per_window, params)
        lam[axis] = res

    # margins of stability on 5 Hz kinematics and averaged CoP
    com_mos = {a: butterworth_lowpass(ts, *MOS_FILTER)
               for a, ts in com_raw.items()}
    vel_mos = com_velocity(com_mos)
    length_m = pendulum_length(com_mos, heel, events)
    omega0 = pendulum_eigenfrequency(length_m)
    xc = xcom(com_mos, vel_mos, length_m)

    # right strikes: the right stance onsets within the span of the
    # analysed left strides
    onsets = stance_onsets(stance["right"])
    side_events = {"left": events, "right": onsets[
        (onsets >= events[0]) & (onsets <= events[-1])]}
    mos = {side: {
        "ML": _mos_entry(mos_ml(xc["ML"], _average_cop(cop[:, 0], rate),
                                stance[side], side_events[side])),
        "AP": _mos_entry(mos_ap(xc["AP"], _average_cop(cop[:, 1], rate),
                                stance[side], side_events[side])),
        "stance": stance_counts[side],
    } for side, cop in cops.items()}

    # the average cycle of the filtered prosthesis angle, moment and
    # angular velocity, and its quasi-stiffness
    avg = average_cycle(prosthesis_cycles(
        TimeSeries(rec.prosthesis["q"], rate),
        TimeSeries(rec.prosthesis["M"], rate), events))
    profile = quasi_stiffness(avg)

    report = {
        "meta": dict(rec.meta),
        "n_analyzed_strides": int(n_strides),
        "n_windows": settings.n_windows,
        "pendulum_length_m": length_m,
        "pendulum_eigenfrequency": omega0,
        "embedding": {a: asdict(lam[a].params) for a in AXES},
        "lyapunov": {a: {
            "short": {"mean": lam[a].lambda_short_mean,
                      "sd": lam[a].lambda_short_sd},
            "long": {"mean": lam[a].lambda_long_mean,
                     "sd": lam[a].lambda_long_sd},
        } for a in AXES},
        "divergence": {a: lam[a].mean_curve.tolist() for a in AXES},
        "mos": mos,
        "quasi_stiffness": {
            "stance_percent": profile.stance_percent.tolist(),
            "stiffness": [None if not np.isfinite(v) else float(v)
                          for v in profile.stiffness],
            "terminal": profile.terminal_value(),
        },
        "profiles": {name: mean.tolist() for name, mean in avg.items()},
    }
    return report


def _average_cop(samples: np.ndarray, rate: float) -> np.ndarray:
    """CoP coordinate averaged over the trailing COP_WINDOW seconds."""
    return moving_average(TimeSeries(samples, rate),
                          round(COP_WINDOW * rate)).samples


def _mos_entry(res) -> dict:
    return {"mean": res.mean, "sd": res.sd,
            "per_cycle": res.per_cycle.tolist(),
            "skipped_cycles": list(res.skipped)}
