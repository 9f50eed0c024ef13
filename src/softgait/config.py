"""Run configuration: a JSON file describing one simulated trial.

`RunConfig` owns every default of a trial; `plant.TrialSpec`, which
`RunConfig.to_trial_spec` builds, owns every range rule."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .plant import Perturbation, TrialSpec


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "AC"                     # "AC" or "TC"
    K_d: float = 15.0                    # Nm/deg, read by AC only
    ground_stiffness: float = math.inf   # kN/m; inf = rigid belt
    n_strides: int = 201
    stride_period: float = 1.47
    seed: int = 0
    body_mass: float = 59.0
    noise_mm: float = 1.0
    period_jitter: float = 0.02
    amplitude_jitter: float = 0.02
    perturbations: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        gs = raw.get("ground_stiffness")
        if isinstance(gs, str):
            if gs != "rigid":
                raise ConfigError(f"bad ground_stiffness {gs!r}")
            raw = dict(raw, ground_stiffness=math.inf)
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_trial_spec(self) -> TrialSpec:
        """The validated trial (the two classes share their field names);
        a value out of range or of the wrong type is a ConfigError."""
        try:
            return TrialSpec(**dict(vars(self), perturbations=tuple(
                _perturbation(p) for p in self.perturbations)))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _perturbation(raw: dict) -> Perturbation:
    try:
        return Perturbation(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad perturbation {raw}: {exc}") from exc
