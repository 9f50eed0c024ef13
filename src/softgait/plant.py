"""Fixed-step simulation of the series-elastic ankle on compliant ground,
plus a synthetic gait-trial generator feeding the analysis pipeline.

The plant is a lumped one-degree-of-freedom ankle: the motor position
tracks its command through a critically damped second-order loop and the
ankle joint sees the spring torque implied by the moment map plus any
external load.  The moment map is affine, so with the motor command and
the load held over a tick the motor and ankle form one linear system,
and each tick is advanced exactly by a matrix exponential taken once at
import (zero-order hold; Van Loan 1978, IEEE TAC 23:395).  The ground
deflects linearly with vertical force; that deflection shapes the marker
templates only, since ground stiffness does not enter the ankle dynamics.
The trial generator drives the controller/plant loop with a kinematic
template (pelvis sway, heel trajectory, stance load profile) and seeded
stride-to-stride variability so the stability analysis downstream is
non-degenerate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .controllers import (DT, TibiaPhaseState, default_gait_lut,
                          default_moment_lut, step_controller,
                          tibia_phase_update)
from .lut import RHO, SIGMA, moment_map

DEG = math.pi / 180.0
ANKLE_INERTIA = 0.005             # kg m^2, foot about the ankle joint
INERTIA_DEG = ANKLE_INERTIA * DEG  # the same, in Nm per (deg/s^2)
ANKLE_DAMPING = 0.03              # Nm s/deg, parasitic joint damping
MOTOR_LOOP_BANDWIDTH = 40.0       # Hz
# kinematic template of the trial generator
LOAD_MOMENT_ARM = 0.055   # m, peak CoP lever arm at the ankle
PELVIS_HEIGHT = 970.0     # mm, CoM height over heel level
ML_SWAY = 20.0            # mm
AP_SWAY = 12.0            # mm
VT_BOUNCE = 10.0          # mm
TIBIA_AMPLITUDE = 10.0    # deg
STANCE_END = 0.6          # stride fraction at toe-off; swing fills the rest
# per-tick channels of the closed-loop log, in recording column order
PROSTHESIS_KEYS = ("t", "x", "q", "M", "omega", "gait_percent", "L_s", "q_d",
                   "x_cmd")


def _tick_update() -> tuple[tuple[float, ...], ...]:
    """Rows of exp(A DT) that advance z = (x - x_cmd, x_dot, q, q_dot, c).

    The motor error obeys ydd = -2 w yd - w^2 y and the ankle
    I qdd = sigma (x - rho q) + M_ext - b qd, i.e.
    qdd = (sigma y - sigma rho q - b qd) / I + c with the held input
    c = (sigma x_cmd + M_ext) / I, whose own row (dc/dt = 0) is dropped.
    """
    w = 2.0 * math.pi * MOTOR_LOOP_BANDWIDTH
    a = np.zeros((5, 5))
    a[0, 1] = 1.0
    a[1, :2] = -w * w, -2.0 * w
    a[2, 3] = 1.0
    a[3, :] = (SIGMA / INERTIA_DEG, 0.0, -SIGMA * RHO / INERTIA_DEG,
               -ANKLE_DAMPING / INERTIA_DEG, 1.0)
    return tuple(map(tuple, scipy.linalg.expm(a * DT)[:4].tolist()))


TICK_UPDATE = _tick_update()


class SimulationDivergedError(RuntimeError):
    pass


@dataclass
class PlantState:
    x: float = 0.0            # motor position, mm
    x_dot: float = 0.0
    q: float = 0.0            # ankle angle, deg
    q_dot: float = 0.0
    moment: float = 0.0       # spring moment from the map, Nm


def ground_deflection(vertical_force, ground_stiffness):
    """Linear surface model: deflection in mm for force in N and stiffness
    in kN/m (N / (kN/m) = mm); a rigid (infinite) stiffness gives 0 for
    any finite force.  Works elementwise on arrays."""
    return vertical_force / ground_stiffness


def step_plant(state: PlantState, motor_cmd: float,
               external_load: float) -> PlantState:
    """Advance the plant exactly by one DT with the motor command and the
    external load held (see `TICK_UPDATE`).

    Motor: a critically damped tracker at MOTOR_LOOP_BANDWIDTH.  Ankle:
    I qdd = M(x, q) + M_ext - b qd, where the map moment is the restoring
    spring torque (positive toward the zero-moment angle).
    """
    (p00, p01, _, _, _), (p10, p11, _, _, _), \
        (p20, p21, p22, p23, p24), (p30, p31, p32, p33, p34) = TICK_UPDATE
    y = state.x - motor_cmd
    yd = state.x_dot
    q = state.q
    q_dot = state.q_dot
    c = (SIGMA * motor_cmd + external_load) / INERTIA_DEG
    x_new = p00 * y + p01 * yd + motor_cmd
    q_new = p20 * y + p21 * yd + p22 * q + p23 * q_dot + p24 * c
    new = PlantState(x=x_new, x_dot=p10 * y + p11 * yd, q=q_new,
                     q_dot=p30 * y + p31 * yd + p32 * q + p33 * q_dot
                     + p34 * c,
                     moment=moment_map(x_new, q_new))
    for v in (new.x, new.q, new.x_dot, new.q_dot, new.moment):
        if not math.isfinite(v):
            raise SimulationDivergedError("plant state is no longer finite")
    return new


@dataclass
class Perturbation:
    kind: str          # "stiffness-step" | "load-impulse"
    at_stride: int
    magnitude: float   # new kN/m for stiffness-step, extra Nm for load-impulse

    def __post_init__(self):
        if self.kind not in ("stiffness-step", "load-impulse"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "stiffness-step" and not self.magnitude > 0:
            raise ValueError("stiffness-step magnitude must be positive")


@dataclass
class TrialSpec:
    """Everything that determines a generated trial, including the seed.

    The defaults live in `config.RunConfig`; the range rules live here.
    """

    mode: str                 # "AC" or "TC"
    K_d: float                # Nm/deg, commanded quasi-stiffness (AC)
    ground_stiffness: float   # kN/m; inf = rigid
    n_strides: int
    stride_period: float      # s, mean stride duration
    seed: int
    period_jitter: float      # fractional sd of stride period
    amplitude_jitter: float   # fractional sd of per-stride amplitudes
    noise_mm: float           # marker measurement noise, smoothed
    body_mass: float          # kg
    perturbations: tuple[Perturbation, ...] = ()

    def __post_init__(self):
        if self.mode not in ("AC", "TC"):
            raise ValueError(f"mode must be AC or TC, got {self.mode!r}")
        for name in ("K_d", "ground_stiffness", "stride_period", "body_mass"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.noise_mm >= 0:
            raise ValueError("noise_mm must be non-negative")
        # stride durations and amplitudes are scaled by 1 + jitter * g, g
        # clipped to [-3, 3], so a third or more could give a stride no
        # time or no motion at all
        for name in ("period_jitter", "amplitude_jitter"):
            if not 0 <= getattr(self, name) < 1 / 3:
                raise ValueError(f"{name} must be in [0, 1/3)")
        if not (isinstance(self.n_strides, numbers.Integral)
                and self.n_strides >= 2):
            raise ValueError("n_strides must be an integer of at least 2")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        for p in self.perturbations:
            if not 0 <= p.at_stride < self.n_strides:
                raise ValueError(f"perturbation at_stride {p.at_stride} "
                                 f"outside [0, {self.n_strides})")


@dataclass
class TrialRecording:
    """Synchronized channels of one simulated walking trial at 100 Hz."""

    markers: dict[str, np.ndarray]        # name -> (N, 3) mm, axes (ML, AP, VT)
    cop_left: np.ndarray                  # (N, 3): ML mm, AP mm, force N
    cop_right: np.ndarray
    prosthesis: dict[str, np.ndarray]     # per-tick controller/plant log
    events_left: np.ndarray               # ground-truth foot-strike indices
    events_right: np.ndarray
    rate: float                           # Hz
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.cop_left)
        for name, arr in self.markers.items():
            if len(arr) != n:
                raise ValueError(f"marker {name} length mismatch")
        for name, arr in self.prosthesis.items():
            if len(arr) != n:
                raise ValueError(f"prosthesis channel {name} length mismatch")
        if np.any(np.diff(self.events_left) <= 0) \
                or np.any(np.diff(self.events_right) <= 0):
            raise ValueError("events must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return len(self.cop_left)


def _stance_bump(u: np.ndarray) -> np.ndarray:
    """Double-bump vertical force template on stance fraction u in [0, 1],
    normalized to unit peak."""
    raw = np.sin(np.pi * u) * (1.0 + 0.15 * np.cos(2.0 * np.pi * u))
    return raw / 0.85  # peak of the raw template, at u = 0.5

def _heel_height(s: np.ndarray) -> np.ndarray:
    """Heel height template over the gait cycle fraction s: heel-rise ramp
    through stance, swing arc, and a sharp notch pinning the minimum at
    foot-strike."""
    h = np.zeros_like(s)
    stance = s < STANCE_END
    u = s[stance] / STANCE_END
    h[stance] = 40.0 * u ** 0.9
    sw = ~stance
    v = (s[sw] - STANCE_END) / (1.0 - STANCE_END)
    # from heel-off height up to peak clearance and back to zero at strike
    h[sw] = 40.0 * (1.0 - v) + 25.0 * np.sin(np.pi * v) ** 2
    notch_w = 0.06
    d = np.minimum(s, 1.0 - s)
    near = d < notch_w
    h[near] -= 15.0 * np.cos(0.5 * np.pi * d[near] / notch_w) ** 2
    return h


def _smooth_noise(rng: np.random.Generator, n: int, scale: float,
                  window: int = 5) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(n)
    w = np.ones(window) / window
    return scale * np.convolve(rng.standard_normal(n + window), w,
                               mode="same")[:n]


def generate_trial(spec: TrialSpec) -> TrialRecording:
    """Run the closed controller/plant loop under the kinematic template.

    Deterministic per spec (including seed): identical specs give
    bitwise-identical recordings.
    """
    rng = np.random.default_rng(spec.seed)
    T = spec.stride_period

    period_g = np.clip(rng.standard_normal(spec.n_strides), -3, 3)
    durations = T * (1.0 + spec.period_jitter * period_g)
    amp_g = np.clip(rng.standard_normal(spec.n_strides), -3, 3)
    amps = 1.0 + spec.amplitude_jitter * amp_g
    starts = np.concatenate(([0.0], np.cumsum(durations)))
    total = starts[-1]
    n = int(math.floor(total / DT))
    t = np.arange(n) * DT

    # continuous stride phase: k + s with s in [0, 1) inside stride k
    stride_idx = np.clip(np.searchsorted(starts, t, side="right") - 1,
                         0, spec.n_strides - 1)
    s_local = (t - starts[stride_idx]) / durations[stride_idx]
    amp_here = amps[stride_idx]

    # ground stiffness per sample (stiffness-step perturbations)
    k_g = np.full(n, spec.ground_stiffness)
    impulse = np.zeros(n)
    for p in spec.perturbations:
        mask = stride_idx >= p.at_stride
        if p.kind == "stiffness-step":
            k_g[mask] = p.magnitude
        else:  # load-impulse active during one stance
            one = (stride_idx == p.at_stride) & (s_local < STANCE_END)
            impulse[one] = p.magnitude

    # per-leg vertical force; right leg offset by half a stride
    peak = 1.1 * spec.body_mass * 9.81
    s_right = (s_local + 0.5) % 1.0
    f_left = np.where(
        s_local < STANCE_END,
        peak * _stance_bump(np.clip(s_local / STANCE_END, 0, 1)), 0.0) \
        * amp_here
    f_right = np.where(
        s_right < STANCE_END,
        peak * _stance_bump(np.clip(s_right / STANCE_END, 0, 1)), 0.0) \
        * amp_here
    defl_left = ground_deflection(f_left, k_g)
    defl_right = ground_deflection(f_right, k_g)
    f_total = f_left + f_right
    with np.errstate(invalid="ignore"):
        defl_com = np.where(f_total > 0,
                            (f_left * defl_left + f_right * defl_right)
                            / np.where(f_total > 0, f_total, 1.0), 0.0)

    # pelvis / CoM template (mm)
    two_pi_s = 2.0 * math.pi * s_local
    com_ml = -ML_SWAY * amp_here * np.sin(two_pi_s) \
        + _smooth_noise(rng, n, spec.noise_mm)
    com_ap = AP_SWAY * amp_here * np.sin(2.0 * two_pi_s + 0.7) \
        + _smooth_noise(rng, n, spec.noise_mm)
    com_vt = PELVIS_HEIGHT + VT_BOUNCE * amp_here \
        * np.cos(2.0 * two_pi_s) - defl_com \
        + _smooth_noise(rng, n, spec.noise_mm)

    offsets = {"LASI": (-60.0, 80.0, 0.0), "RASI": (60.0, 80.0, 0.0),
               "LPSI": (-60.0, -80.0, 0.0), "RPSI": (60.0, -80.0, 0.0)}
    markers = {}
    center = np.stack([com_ml, com_ap, com_vt], axis=1)
    for name, off in offsets.items():
        markers[name] = center + np.asarray(off)

    # left heel: template height minus local ground deflection
    heel_vt = _heel_height(s_local) * amp_here - defl_left \
        + _smooth_noise(rng, n, 0.3 * spec.noise_mm)
    heel_ml = np.full(n, -90.0) + _smooth_noise(rng, n, 0.3 * spec.noise_mm)
    heel_ap = 150.0 * np.cos(two_pi_s) + _smooth_noise(rng, n,
                                                       0.3 * spec.noise_mm)
    markers["LHEEL"] = np.stack([heel_ml, heel_ap, heel_vt], axis=1)

    # CoP: heel-to-toe progression during stance, held elsewhere
    def cop_channels(s_leg, force, ml_base):
        u = np.clip(s_leg / STANCE_END, 0.0, 1.0)
        ap = 250.0 - 372.0 * u
        ml = np.full_like(ap, ml_base)
        in_stance = s_leg < STANCE_END
        ap = np.where(in_stance, ap, 250.0)
        return np.stack([ml, ap, force], axis=1)

    cop_left = cop_channels(s_local, f_left, -80.0)
    cop_right = cop_channels(s_right, f_right, 80.0)

    # closed-loop prosthesis simulation, fed by two template signals:
    # tibia velocity (-sin puts the estimator's phase zero at foot strike)
    omega_noise = _smooth_noise(rng, n, 2.0)  # deg/s
    omega = -TIBIA_AMPLITUDE * amp_here \
        * (2.0 * math.pi / durations[stride_idx]) * np.sin(two_pi_s) \
        + omega_noise
    # and the stance load: the ankle moment rises monotonically through
    # stance as the CoP travels heel to toe, then releases quickly at
    # toe-off
    u_st = s_local / STANCE_END
    ramp = u_st < 0.95
    release = ~ramp & (u_st < 1.0)
    g = np.zeros(n)
    g[ramp] = u_st[ramp] / 0.95
    g[release] = np.cos(0.5 * math.pi * (u_st[release] - 0.95) / 0.05) ** 2
    load = -LOAD_MOMENT_ARM * peak * amp_here * g + impulse

    gait_lut = default_gait_lut()
    moment_lut = default_moment_lut()
    plant = PlantState()
    phase = TibiaPhaseState()
    m_filt = 0.0
    log = {k: np.zeros(n) for k in PROSTHESIS_KEYS}
    log["t"], log["omega"] = t, omega
    for i in range(n):
        phase = tibia_phase_update(phase, omega.item(i))
        out = step_controller(spec.mode, plant.q, plant.moment, phase,
                              spec.K_d, gait_lut, moment_lut, m_filt)
        m_filt = out.m_filtered
        plant = step_plant(plant, out.x_cmd, load.item(i))
        log["x"][i] = plant.x
        log["q"][i] = plant.q
        log["M"][i] = plant.moment
        log["gait_percent"][i] = phase.gait_percent
        log["L_s"][i] = phase.L_s
        log["q_d"][i] = out.q_d
        log["x_cmd"][i] = out.x_cmd

    events_left = np.round(starts[:-1] / DT).astype(int)
    events_left = events_left[events_left < n]
    right_times = starts[:-1] + 0.5 * durations
    events_right = np.round(right_times / DT).astype(int)
    events_right = events_right[events_right < n]

    meta = {"mode": spec.mode, "K_d": spec.K_d, "seed": spec.seed,
            "n_strides": spec.n_strides, "stride_period": spec.stride_period,
            "ground_stiffness": ("rigid" if math.isinf(spec.ground_stiffness)
                                 else spec.ground_stiffness),
            "body_mass": spec.body_mass}
    return TrialRecording(markers=markers, cop_left=cop_left,
                          cop_right=cop_right, prosthesis=log,
                          events_left=events_left, events_right=events_right,
                          rate=1.0 / DT, meta=meta)
