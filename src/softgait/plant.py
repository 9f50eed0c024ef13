"""Fixed-step simulation of the series-elastic ankle on compliant ground,
plus a synthetic gait-trial generator feeding the analysis pipeline.

The plant is a lumped one-degree-of-freedom ankle: the motor position
tracks its command through a critically damped second-order loop and the
ankle joint sees the external load, dorsiflexing when positive, less the
plantarflexor moment of the moment map (`lut.moment_map` states the sign
convention).  The moment map is affine, so with the motor command and
the load held over a tick the motor and ankle form one linear system,
and each tick is advanced exactly by a matrix exponential taken once at
import (zero-order hold; Van Loan 1978, IEEE TAC 23:395).  The ground
deflects linearly with vertical force; that deflection shapes the marker
templates only, since ground stiffness does not enter the ankle dynamics.

A trial has two parts.  `_template` makes every random draw and builds,
with whole-array operations, the body's kinematic template (pelvis sway,
heel path, CoP, foot strikes, stride-to-stride variability so that the
stability analysis downstream is non-degenerate) and the two signals the
prosthesis sees, tibia velocity and stance load.  `_closed_loop` then runs
the prosthesis on those signals in three stages, each over the whole
trial before the next: the phase estimator, stepped once per tick on the
tibia velocity alone; the gait reference, computed once on the
estimator's arrays; and the closed loop proper, in which only the
controller and the plant step, since only they read the plant.  Nothing
it computes reaches the markers or the CoP.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .controllers import (DT, SSP, TibiaPhaseState, default_gait_lut,
                          default_moment_lut, step_controller,
                          tibia_phase_update, tibia_reference_motor)
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
PEAK_FORCE = 1.1          # vertical force peak, in body weights
GRAVITY = 9.81            # m/s^2; the simulator loads no analysis module
COP_AP_STRIKE = 250.0     # mm, fore-aft CoP at foot strike
COP_AP_TRAVEL = 372.0     # mm, heel-to-toe CoP travel over stance
COP_ML = 80.0             # mm, lateral CoP offset; the left foot's is negative
HEEL_ML = -90.0           # mm
HEEL_AP = 150.0           # mm, fore-aft heel excursion amplitude
HEEL_NOISE = 0.3          # heel marker noise, as a fraction of noise_mm
OMEGA_NOISE = 2.0         # deg/s, tibia-velocity noise
PELVIS_MARKERS = {"LASI": (-60.0, 80.0, 0.0), "RASI": (60.0, 80.0, 0.0),
                  "LPSI": (-60.0, -80.0, 0.0), "RPSI": (60.0, -80.0, 0.0)}
# per-tick channels of the closed-loop log, in recording column order
PROSTHESIS_KEYS = ("x", "q", "M", "omega", "gait_percent", "L_s", "q_d",
                   "x_cmd")


def _tick_update() -> tuple[tuple[float, ...], ...]:
    """Rows of exp(A DT) that advance z = (x - x_cmd, x_dot, q, q_dot, c).

    The motor error obeys ydd = -2 w yd - w^2 y and the ankle
    I qdd = -M + M_ext - b qd = sigma (x - rho q) + M_ext - b qd, i.e.
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


class PlantState(NamedTuple):
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
    I qdd = -M(x, q) + M_ext - b qd, with M the spring's plantarflexor
    moment and M_ext the dorsiflexing external load.
    """
    (p00, p01, _, _, _), (p10, p11, _, _, _), \
        (p20, p21, p22, p23, p24), (p30, p31, p32, p33, p34) = TICK_UPDATE
    x, yd, q, q_dot, _ = state
    y = x - motor_cmd
    c = (SIGMA * motor_cmd + external_load) / INERTIA_DEG
    x_new = p00 * y + p01 * yd + motor_cmd
    q_new = p20 * y + p21 * yd + p22 * q + p23 * q_dot + p24 * c
    new = PlantState(x_new, p10 * y + p11 * yd, q_new,
                     p30 * y + p31 * yd + p32 * q + p33 * q_dot + p34 * c,
                     moment_map(x_new, q_new))
    if not all(map(math.isfinite, new)):
        raise SimulationDivergedError("plant state is no longer finite")
    return new


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

    def __post_init__(self):
        if self.mode not in ("AC", "TC"):
            raise ValueError(f"mode must be AC or TC, got {self.mode!r}")
        for name in ("K_d", "ground_stiffness", "stride_period", "body_mass"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # AC's loop gain on the moment, 1 - SIGMA*RHO / K_d, must exceed -1
        if self.mode == "AC" and not self.K_d > SIGMA * RHO / 2:
            raise ValueError("K_d must exceed SIGMA*RHO/2 in AC mode")
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


def _smooth_noise(rng: np.random.Generator, n: int,
                  scale: float) -> np.ndarray:
    """Five-sample moving average of white noise, scaled; no draw at 0."""
    if scale == 0.0:
        return np.zeros(n)
    window = 5
    return scale * np.convolve(rng.standard_normal(n + window),
                               np.ones(window) / window, mode="same")[:n]


def _template(spec: TrialSpec):
    """(body, omega, load): the `TrialRecording` fields markers, CoP and
    events, then the tibia velocity (deg/s) and the dorsiflexing stance
    load (Nm) that drive the prosthesis.  Draws in a fixed order."""
    rng = np.random.default_rng(spec.seed)
    period_g = np.clip(rng.standard_normal(spec.n_strides), -3, 3)
    durations = spec.stride_period * (1.0 + spec.period_jitter * period_g)
    amp_g = np.clip(rng.standard_normal(spec.n_strides), -3, 3)
    amps = 1.0 + spec.amplitude_jitter * amp_g
    starts = np.concatenate(([0.0], np.cumsum(durations)))
    n = int(math.floor(starts[-1] / DT))
    t = np.arange(n) * DT

    # continuous stride phase: k + s with s in [0, 1) inside stride k
    stride_idx = np.clip(np.searchsorted(starts, t, side="right") - 1,
                         0, spec.n_strides - 1)
    s_local = (t - starts[stride_idx]) / durations[stride_idx]
    amp_here = amps[stride_idx]

    # per-leg vertical force; right leg offset by half a stride
    peak = PEAK_FORCE * spec.body_mass * GRAVITY
    s_right = (s_local + 0.5) % 1.0
    f_left, f_right = (np.where(
        s_leg < STANCE_END,
        peak * _stance_bump(np.clip(s_leg / STANCE_END, 0, 1)), 0.0)
        * amp_here for s_leg in (s_local, s_right))
    defl_left = ground_deflection(f_left, spec.ground_stiffness)
    defl_right = ground_deflection(f_right, spec.ground_stiffness)
    f_total = f_left + f_right
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
    center = np.stack([com_ml, com_ap, com_vt], axis=1)
    markers = {name: center + np.asarray(off)
               for name, off in PELVIS_MARKERS.items()}

    # left heel: template height minus local ground deflection
    heel_noise = HEEL_NOISE * spec.noise_mm
    heel_vt = _heel_height(s_local) * amp_here - defl_left \
        + _smooth_noise(rng, n, heel_noise)
    heel_ml = np.full(n, HEEL_ML) + _smooth_noise(rng, n, heel_noise)
    heel_ap = HEEL_AP * np.cos(two_pi_s) + _smooth_noise(rng, n, heel_noise)
    markers["LHEEL"] = np.stack([heel_ml, heel_ap, heel_vt], axis=1)

    # CoP: heel-to-toe progression during stance, held elsewhere
    def cop_channels(s_leg, force, ml):
        u = np.clip(s_leg / STANCE_END, 0.0, 1.0)
        ap = np.where(s_leg < STANCE_END, COP_AP_STRIKE - COP_AP_TRAVEL * u,
                      COP_AP_STRIKE)
        return np.stack([np.full_like(ap, ml), ap, force], axis=1)

    # tibia velocity: -sin puts the estimator's phase zero at foot strike
    omega = -TIBIA_AMPLITUDE * amp_here \
        * (2.0 * math.pi / durations[stride_idx]) * np.sin(two_pi_s) \
        + _smooth_noise(rng, n, OMEGA_NOISE)
    # stance load, dorsiflexing: the ankle moment rises monotonically
    # through stance as the CoP travels heel to toe, then releases quickly
    # at toe-off
    u_st = s_local / STANCE_END
    ramp = u_st < 0.95
    release = ~ramp & (u_st < 1.0)
    g = np.zeros(n)
    g[ramp] = u_st[ramp] / 0.95
    g[release] = np.cos(0.5 * math.pi * (u_st[release] - 0.95) / 0.05) ** 2
    load = LOAD_MOMENT_ARM * peak * amp_here * g

    events_left = np.round(starts[:-1] / DT).astype(int)
    events_right = np.round((starts[:-1] + 0.5 * durations) / DT).astype(int)
    body = {"markers": markers,
            "cop_left": cop_channels(s_local, f_left, -COP_ML),
            "cop_right": cop_channels(s_right, f_right, COP_ML),
            "events_left": events_left[events_left < n],
            "events_right": events_right[events_right < n]}
    return body, omega, load


def _closed_loop(mode: str, K_d: float, omega: np.ndarray,
                 load: np.ndarray) -> dict[str, np.ndarray]:
    """The `PROSTHESIS_KEYS` log of estimator, controller and plant on
    each sample of omega and load, in three stages (see the module
    docstring).  Ticks read and write the arrays through memoryviews,
    which give and take Python floats without a list of them."""
    n = len(omega)
    moment_lut = default_moment_lut()
    log = {k: np.empty(n) for k in PROSTHESIS_KEYS}
    log["omega"] = omega

    # 1. estimator: reads only the tibia velocity
    gait_percent, L_s = (memoryview(log[k]) for k in ("gait_percent", "L_s"))
    phase = TibiaPhaseState()
    for i, w in enumerate(memoryview(omega)):
        phase = tibia_phase_update(phase, w)
        gait_percent[i] = phase.gait_percent
        L_s[i] = phase.L_s

    # 2. gait reference: reads only the estimate
    x_g = tibia_reference_motor(log["gait_percent"], log["L_s"],
                                default_gait_lut(), moment_lut)

    # 3. controller and plant, the only stage that reads the plant
    x, q, M, q_d, x_cmd = (memoryview(log[k])
                           for k in ("x", "q", "M", "q_d", "x_cmd"))
    state = PlantState()
    for i, (x_g_i, L_s_norm, load_i) in enumerate(zip(
            memoryview(x_g), memoryview(log["L_s"] / SSP), memoryview(load))):
        out = step_controller(mode, state.q, state.moment, x_g_i, L_s_norm,
                              K_d, moment_lut)
        state = step_plant(state, out.x_cmd, load_i)
        x_cmd[i], q_d[i] = out
        x[i], _, q[i], _, M[i] = state
    return log


def generate_trial(spec: TrialSpec) -> TrialRecording:
    """Run the closed controller/plant loop under the kinematic template.

    Deterministic per spec (including seed): identical specs give
    bitwise-identical recordings.
    """
    body, omega, load = _template(spec)
    meta = {"mode": spec.mode, "K_d": spec.K_d, "seed": spec.seed,
            "n_strides": spec.n_strides, "stride_period": spec.stride_period,
            "ground_stiffness": ("rigid" if math.isinf(spec.ground_stiffness)
                                 else spec.ground_stiffness),
            "body_mass": spec.body_mass}
    return TrialRecording(
        **body, prosthesis=_closed_loop(spec.mode, spec.K_d, omega, load),
        rate=1.0 / DT, meta=meta)
