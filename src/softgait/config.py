"""Run configuration: a JSON file describing one simulated trial."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .controllers import AdmittanceParams
from .plant import PlantConfig, Perturbation, TrialSpec


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "AC"                     # "AC" or "TC"
    K_d: float = 15.0                    # Nm/deg, admittance only
    ground_stiffness: float = math.inf   # kN/m; inf = rigid belt
    n_strides: int = 200
    stride_period: float = 1.47
    seed: int = 0
    body_mass: float = 59.0
    noise_mm: float = 1.0
    period_jitter: float = 0.02
    amplitude_jitter: float = 0.02
    perturbations: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("AC", "TC"):
            raise ConfigError(f"mode must be AC or TC, got {self.mode!r}")
        if self.mode == "AC" and not self.K_d > 0:
            raise ConfigError("K_d must be positive for admittance control")
        if not self.ground_stiffness > 0:
            raise ConfigError("ground_stiffness must be positive")
        if self.n_strides < 2:
            raise ConfigError("n_strides must be at least 2")
        if not self.stride_period > 0:
            raise ConfigError("stride_period must be positive")

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
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_trial_spec(self) -> TrialSpec:
        perturbations = []
        for p in self.perturbations:
            try:
                perturbations.append(Perturbation(**p))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad perturbation {p}: {exc}") from exc
        try:
            return TrialSpec(
                cfg=PlantConfig(ground_stiffness=self.ground_stiffness),
                mode=self.mode,
                params=AdmittanceParams(K_d=self.K_d),
                n_strides=self.n_strides, stride_period=self.stride_period,
                seed=self.seed, period_jitter=self.period_jitter,
                amplitude_jitter=self.amplitude_jitter,
                noise_mm=self.noise_mm, body_mass=self.body_mass,
                perturbations=tuple(perturbations))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
