"""Run configuration: a JSON file describing one simulated trial.

`RunConfig` is the trial: each field is written once, with its default,
and `__post_init__` holds every range rule, so a `RunConfig` that exists
is valid and `plant.generate_trial` runs it as it is."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .io import is_finite, is_int
from .lut import RHO, SIGMA


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    mode: str = "AC"                     # "AC" or "TC"
    K_d: float = 15.0                    # Nm/deg, read by AC only
    ground_stiffness: float = math.inf   # kN/m; inf = rigid belt
    n_strides: int = 201
    stride_period: float = 1.47          # s, mean stride duration
    seed: int = 0
    body_mass: float = 59.0              # kg
    noise_mm: float = 1.0                # marker measurement noise, smoothed
    period_jitter: float = 0.02          # fractional sd of stride period
    amplitude_jitter: float = 0.02       # fractional sd of stride amplitudes

    def __post_init__(self):
        if self.mode not in ("AC", "TC"):
            raise ConfigError(f"mode must be AC or TC, got {self.mode!r}")
        # a bool is not a number; only the ground may be infinitely stiff,
        # and a number that is not finite is a float
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "float" or is_finite(value):
                continue
            if not isinstance(value, float):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if f.name != "ground_stiffness":
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name in ("K_d", "ground_stiffness", "stride_period", "body_mass"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        # AC's moment loop gain 1 - SIGMA*RHO/K_d: below -0.9 strides chatter
        if self.mode == "AC" and not self.K_d >= SIGMA * RHO / 1.9:
            raise ConfigError("K_d must be at least SIGMA*RHO/1.9 in AC mode")
        if not self.noise_mm >= 0:
            raise ConfigError("noise_mm must be non-negative")
        # stride durations and amplitudes are scaled by 1 + jitter * g, g
        # clipped to [-3, 3], so a third or more could give a stride no
        # time or no motion at all
        for name in ("period_jitter", "amplitude_jitter"):
            if not 0 <= getattr(self, name) < 1 / 3:
                raise ConfigError(f"{name} must be in [0, 1/3)")
        for name, least in (("n_strides", 2), ("seed", 0)):
            value = getattr(self, name)
            if not (is_int(value) and value >= least):
                raise ConfigError(f"{name} must be an integer of at least "
                                  f"{least}, got {value!r}")

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        raw = dict(raw, **overrides)    # in before any value is checked
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        gs = raw.get("ground_stiffness")
        if isinstance(gs, str):
            if gs != "rigid":
                raise ConfigError(f"bad ground_stiffness {gs!r}")
            raw = dict(raw, ground_stiffness=math.inf)
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        with open(path) as fh:
            # a ValueError: malformed JSON, or bytes that are not UTF-8
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw, **overrides)

    # perfbench's paper_trial calls RunConfig(...).to_trial_spec(), so the
    # name stays; a RunConfig is already the validated trial
    def to_trial_spec(self) -> "RunConfig":
        return self
