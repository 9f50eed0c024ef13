"""Whole-trial analysis: foot-strikes, windowed divergence exponents,
margins of stability, and quasi-stiffness, aggregated into a report
dictionary that serializes to the report file."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .plant import TrialRecording
from .signals import TimeSeries, butterworth_lowpass, moving_average
from .stability.balance import (AXES, com_velocity, detect_foot_strikes,
                                estimate_com, mos_ap, mos_ml,
                                pendulum_eigenfrequency, pendulum_length,
                                stance_frames, xcom)
from .stability.embedding import EmbeddingParams
from .stability.lyapunov import windowed_lyapunov
from .stability.stats import ALPHA, delta_lambda, wilcoxon_ranksum
from .stiffness import average_cycle, prosthesis_cycles, quasi_stiffness

LYAPUNOV_FILTER = (2, 10.0)   # order, cutoff Hz for divergence CoM
MOS_FILTER = (4, 5.0)         # order, cutoff Hz for MOS kinematics
COP_WINDOW = 10               # moving-average samples for CoP


@dataclass
class AnalysisSettings:
    exclude_strides: int = 25
    window_strides: int = 150
    n_windows: int = 25
    points_per_window: int = 15000
    embedding_overrides: dict | None = None   # axis -> (tau, dim)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and not _is_int(value):
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
        if not isinstance(overrides, dict):
            raise TypeError("embedding_overrides must map axes to (tau, dim), "
                            f"got {overrides!r}")
        for axis, pair in overrides.items():
            if axis not in AXES:
                raise ValueError(f"embedding_overrides: unknown axis {axis!r}")
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(_is_int(v) for v in pair)):
                raise TypeError(f"embedding_overrides[{axis!r}] must be two "
                                f"integers (tau, dim), got {pair!r}")
            EmbeddingParams(*pair)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_meta(meta: dict, key: str) -> float:
    value = meta.get(key)
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value < math.inf):
        raise ValueError(f"recording meta needs a positive {key}, "
                         f"got {value!r}")
    return value


def analyze_trial(rec: TrialRecording,
                  settings: AnalysisSettings | None = None) -> dict:
    if settings is None:
        settings = AnalysisSettings()
    rate = rec.rate
    body_weight = _positive_meta(rec.meta, "body_mass") * 9.81
    nominal_stride = _positive_meta(rec.meta, "stride_period")

    heel = rec.markers["LHEEL"]
    strikes = detect_foot_strikes(TimeSeries(heel[:, 2], rate),
                                  nominal_stride)
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
        params = EmbeddingParams(*override) if override else None
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

    def side_mos(cop: np.ndarray, side_events: np.ndarray):
        cop_ml_f = moving_average(TimeSeries(cop[:, 0], rate), COP_WINDOW)
        cop_ap_f = moving_average(TimeSeries(cop[:, 1], rate), COP_WINDOW)
        stance = stance_frames(cop[:, 2], body_weight)
        ml = mos_ml(xc["ML"], cop_ml_f.samples, stance, side_events)
        ap = mos_ap(xc["AP"], cop_ap_f.samples, stance, side_events)
        return ml, ap

    left_ml, left_ap = side_mos(rec.cop_left, events)
    right_events = rec.events_right[
        (rec.events_right >= events[0]) & (rec.events_right <= events[-1])]
    right_ml, right_ap = side_mos(rec.cop_right, right_events)

    # quasi-stiffness and phase portrait (angular velocity vs angle) of the
    # average cycle, on filtered prosthesis angle and moment
    cycles = prosthesis_cycles(TimeSeries(rec.prosthesis["q"], rate),
                               TimeSeries(rec.prosthesis["M"], rate), events)
    avg = average_cycle(cycles)
    profile = quasi_stiffness(avg)
    mean_qdot = cycles["qdot"].mean(axis=0)

    report = {
        "meta": dict(rec.meta),
        "n_analyzed_strides": int(n_strides),
        "n_windows": settings.n_windows,
        "pendulum_length_m": length_m,
        "pendulum_eigenfrequency": omega0,
        "embedding": {a: {"tau": int(lam[a].params.tau),
                          "dim": int(lam[a].params.dim)} for a in AXES},
        "lyapunov": {a: {
            "short": {"mean": lam[a].lambda_short_mean,
                      "sd": lam[a].lambda_short_sd},
            "long": {"mean": lam[a].lambda_long_mean,
                     "sd": lam[a].lambda_long_sd},
        } for a in AXES},
        "divergence": {a: lam[a].mean_curve.tolist() for a in AXES},
        "mos": {
            "left": {"ML": _mos_entry(left_ml), "AP": _mos_entry(left_ap)},
            "right": {"ML": _mos_entry(right_ml), "AP": _mos_entry(right_ap)},
        },
        "quasi_stiffness": {
            "stance_percent": profile.stance_percent.tolist(),
            "stiffness": [None if not np.isfinite(v) else float(v)
                          for v in profile.stiffness],
            "terminal": profile.terminal_value(60.0),
        },
        "profiles": {
            "moment_angle": {"q": avg.mean_angle.tolist(),
                             "M": avg.mean_moment.tolist()},
            "phase_portrait": {"q": avg.mean_angle.tolist(),
                               "qdot": mean_qdot.tolist()},
        },
    }
    return report


def _mos_entry(res) -> dict:
    return {"mean": res.mean, "sd": res.sd,
            "per_cycle": res.per_cycle.tolist(),
            "skipped_cycles": list(res.skipped)}


def compare_reports(baseline: dict, candidates: dict[str, dict]) -> dict:
    """Exponent changes against the baseline and MOS rank-sum tests.

    Negative delta means improved local dynamic stability; for margins of
    stability, larger is better, so improvement is a greater mean.
    """
    _check_schema(baseline)
    out = {"baseline": baseline["meta"], "alpha": ALPHA, "candidates": {}}
    for name, cand in candidates.items():
        _check_schema(cand)
        entry = {"meta": cand["meta"], "delta_lambda": {}, "mos": {}}
        for axis in AXES:
            entry["delta_lambda"][axis] = {}
            for horizon in ("short", "long"):
                d = delta_lambda(cand["lyapunov"][axis][horizon]["mean"],
                                 baseline["lyapunov"][axis][horizon]["mean"])
                entry["delta_lambda"][axis][horizon] = {
                    "delta": d, "improved": d < 0}
        for side in ("left", "right"):
            entry["mos"][side] = {}
            for direction in ("ML", "AP"):
                base = baseline["mos"][side][direction]["per_cycle"]
                new = cand["mos"][side][direction]["per_cycle"]
                p, significant = wilcoxon_ranksum(new, base)
                entry["mos"][side][direction] = {
                    "mean": cand["mos"][side][direction]["mean"],
                    "baseline_mean": baseline["mos"][side][direction]["mean"],
                    "p_value": p,
                    "significant": significant,
                    "improved": (cand["mos"][side][direction]["mean"]
                                 > baseline["mos"][side][direction]["mean"]),
                }
        out["candidates"][name] = entry
    return out


class SchemaMismatchError(ValueError):
    pass


def _check_schema(report: dict) -> None:
    try:
        for axis in AXES:
            report["lyapunov"][axis]["short"]["mean"]
            report["lyapunov"][axis]["long"]["mean"]
        for side in ("left", "right"):
            for direction in ("ML", "AP"):
                report["mos"][side][direction]["per_cycle"]
    except KeyError as exc:
        raise SchemaMismatchError(f"report missing {exc}") from exc
