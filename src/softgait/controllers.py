"""Tibia and admittance controllers as deterministic 100 Hz state machines.

The tibia controller (TC) is a phase-variable controller: tibia angular
velocity drives a phase-plane estimator producing gait percent and stride
length, a gait surface gives the reference ankle angle, and the moment map
inversion turns that into a motor command.  The admittance controller (AC)
wraps the TC: it derives the unloaded equilibrium angle from the TC
command and offsets it by M / K_d to emulate the chosen quasi-stiffness.
Only stiffness is emulated: the law has no damping or inertia terms.

The estimator and the gait reference read only the tibia velocity, never
the ankle, so a trial runs them in stages: `tibia_phase_update` once per
tick, then `tibia_reference_motor` once, on the whole trial's arrays.
`step_controller` is the per-tick rest, moment feedback, the blend and
AC's two moment-dependent inversions, and the only part that reads the
plant (see `plant._closed_loop`).

Signs follow `lut.moment_map`, so both are springs: AC of K_d, and TC,
whose motor holds its gait-surface position, of SIGMA*RHO.  TC's moment
feedback K_M * M has a loop gain of -K_M*SIGMA = -0.25: it yields to load.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lut import Lut2D, moment_map

DT = 0.01                   # s, the 100 Hz control tick
MOTOR_RANGE_MM = (-40.0, 40.0)
ANGLE_RANGE_DEG = (-30.0, 30.0)
SSP = 0.95                  # m, self-selected-pace stride length
LEAK_TAU = 2.0              # s, leak of the tibia-angle integrator
STRIDE_CALIBRATION = 0.095  # m of stride length per deg of orbit radius
K_M = 0.1                   # mm/Nm, moment feedback gain of the TC path
FB_GAIN = 0.45              # mm/deg, angle feedback of the AC position loop
PEAK_DORSIFLEXION = 8.0     # deg, gait surface plateau at SSP
PUSHOFF_PLANTARFLEXION = -12.0  # deg, gait surface push-off at SSP
LEAK = DT / LEAK_TAU        # per-tick leak of the estimator's running means


def _clamp(v: float, lo: float, hi: float) -> float:
    """min(max(v, lo), hi) for lo <= hi, NaN and signed zeros included,
    without the builtins' call overhead."""
    return lo if v < lo else hi if v > hi else v


class TibiaPhaseState(NamedTuple):
    """Phase-plane estimator state.

    The tibia angle is recovered from angular velocity by leaky
    integration (time constant LEAK_TAU kills drift).  The phase plane uses
    (theta - running mean, omega / omega_scale) with omega_scale the ratio
    of the two running RMS levels, which makes the orbit near-circular;
    gait percent is the normalized polar angle and stride length is the
    orbit radius through a linear calibration.
    """

    theta_integral: float = 0.0
    phase_angle: float = 0.0    # rad, in [0, 2 pi)
    L_s: float = 0.0
    # estimator internals
    theta_mean: float = 0.0
    ms_theta: float = 0.0
    ms_omega: float = 0.0

    @property
    def gait_percent(self) -> float:
        """Stride fraction in [0, 1): zero at foot strike."""
        return self.phase_angle / (2.0 * math.pi)


_OMEGA_FLOOR = 1e-9


def tibia_phase_update(state: TibiaPhaseState,
                       omega: float) -> TibiaPhaseState:
    """Advance the phase-plane estimator by one tick of tibia velocity."""
    theta = state.theta_integral * (1.0 - LEAK) + omega * DT
    theta_mean = state.theta_mean + (theta - state.theta_mean) * LEAK
    theta_c = theta - theta_mean
    ms_theta = state.ms_theta + (theta_c ** 2 - state.ms_theta) * LEAK
    ms_omega = state.ms_omega + (omega ** 2 - state.ms_omega) * LEAK

    if ms_omega < _OMEGA_FLOOR and abs(omega) < _OMEGA_FLOOR:
        # no motion: hold phase and stride length
        return TibiaPhaseState(theta, state.phase_angle, state.L_s,
                               theta_mean, ms_theta, ms_omega)

    omega_scale = math.sqrt(ms_omega / ms_theta) if ms_theta > _OMEGA_FLOOR else 1.0
    phase = math.atan2(-omega / omega_scale, theta_c) % (2.0 * math.pi)
    if phase == 2.0 * math.pi:  # a negative angle within rounding of zero
        phase = 0.0
    L_s = state.L_s
    if phase - state.phase_angle < -math.pi:  # the orbit wrapped: new stride
        radius = math.sqrt(2.0 * ms_theta)
        L_s = STRIDE_CALIBRATION * radius
    return TibiaPhaseState(theta, phase, L_s, theta_mean, ms_theta, ms_omega)


def blend_commands(x_m: float, x_g: float, L_s_norm: float) -> float:
    """Weighted TC output: moment feedback dominates at low stride length.

    L_s_norm is never negative: the estimator's stride length is a scaled
    RMS of the tibia angle."""
    if L_s_norm >= 1.0:
        return x_g
    a = 0.5 * math.cos(math.pi * L_s_norm) + 0.5
    return a * x_m + (1.0 - a) * x_g


def moment_feedback(M: float) -> float:
    """Proportional moment-to-motor command, clamped to the motor range."""
    return _clamp(K_M * M, *MOTOR_RANGE_MM)


def tibia_reference_motor(gait_percent: np.ndarray, L_s: np.ndarray,
                          gait_lut: Lut2D, moment_lut: Lut2D) -> np.ndarray:
    """Reference motor position of each tick: the gait surface gives the
    reference ankle angle, whose unloaded (zero-moment) motor position is
    looked up, both saturating at their tables' range.  Takes the
    estimator's whole-trial arrays."""
    q_ref = gait_lut.eval_array(gait_percent, L_s)
    return moment_lut.invert_array(0.0, ("b", q_ref))


def admittance_equilibrium(x_d_tc: float, moment_lut: Lut2D) -> float:
    """Virtual unloaded ankle angle realized by the TC motor command."""
    return moment_lut.invert(0.0, ("a", x_d_tc))


def admittance_target(q_e: float, M: float, K_d: float) -> float:
    """Admittance law: desired angle is the equilibrium offset by M / K_d."""
    if not K_d > 0:
        raise ValueError("K_d must be positive")
    return _clamp(q_e + M / K_d, *ANGLE_RANGE_DEG)


def ankle_controller(q_d: float, q: float, M: float,
                     moment_lut: Lut2D) -> float:
    """Feedforward (moment-map inversion at the desired angle) plus
    proportional feedback on the angle error.  q_d must lie in
    ANGLE_RANGE_DEG, as `admittance_target` returns it."""
    x_ff = moment_lut.invert(M, ("b", q_d))
    x_fb = FB_GAIN * (q_d - q)
    return _clamp(x_ff + x_fb, MOTOR_RANGE_MM[0], MOTOR_RANGE_MM[1])


class ControllerOutput(NamedTuple):
    """One tick of controller diagnostics alongside the motor command.

    In TC mode there is no desired angle (`q_d` is NaN)."""

    x_cmd: float
    q_d: float


def step_controller(mode: str, q: float, M: float, x_g: float,
                    L_s_norm: float, K_d: float,
                    moment_lut: Lut2D) -> ControllerOutput:
    """Compose one DT control tick in either TC or AC mode from the
    measured ankle angle q (deg) and moment M (Nm), the tick's gait
    reference x_g (`tibia_reference_motor`) and its stride length over SSP.

    The AC law reads the raw moment: its loop gain on it, 1 - SIGMA*RHO / K_d,
    stays in [-0.9, 1) from `config.RunConfig`'s bound K_d >= SIGMA*RHO / 1.9;
    nearer -1 the first strides of a trial chatter.
    """
    x_m = moment_feedback(M)
    x_d_tc = _clamp(blend_commands(x_m, x_g, L_s_norm), *MOTOR_RANGE_MM)
    if mode == "TC":
        return ControllerOutput(x_d_tc, math.nan)
    if mode == "AC":
        q_e = admittance_equilibrium(x_d_tc, moment_lut)
        q_d = admittance_target(q_e, M, K_d)
        return ControllerOutput(ankle_controller(q_d, q, M, moment_lut), q_d)
    raise ValueError(f"unknown controller mode {mode!r}")


def default_gait_lut() -> Lut2D:
    """Synthetic gait surface: reference ankle angle vs (gait percent,
    stride length).

    Shape: dorsiflexion ramp over early stance, a plateau through mid and
    terminal stance, plantarflexion push-off right after stance, and
    return to neutral in swing.  Amplitude scales linearly with stride
    length, with unit scale at SSP.  The plateau before push-off is what
    lets the admittance wrapper emulate a clean constant stiffness in late
    stance.
    """
    gp = np.linspace(0.0, 1.0, 101)
    shape = np.zeros_like(gp)
    for i, s in enumerate(gp):
        if s < 0.25:
            shape[i] = PEAK_DORSIFLEXION * 0.5 * (1 - math.cos(math.pi * s / 0.25))
        elif s < 0.60:
            shape[i] = PEAK_DORSIFLEXION
        elif s < 0.72:
            u = (s - 0.60) / 0.12
            shape[i] = (PEAK_DORSIFLEXION
                        + (PUSHOFF_PLANTARFLEXION - PEAK_DORSIFLEXION)
                        * 0.5 * (1 - math.cos(math.pi * u)))
        else:
            u = (s - 0.72) / 0.28
            shape[i] = PUSHOFF_PLANTARFLEXION * 0.5 * (1 + math.cos(math.pi * u))
    lengths = np.linspace(0.2, 2.0, 10)
    values = shape[:, None] * (lengths[None, :] / SSP)
    return Lut2D(gp, lengths, values)


def default_moment_lut() -> Lut2D:
    """The controllers' table of the ankle's moment map, on 1 mm by 1 deg
    nodes spanning the motor and angle ranges."""
    a = np.arange(MOTOR_RANGE_MM[0], MOTOR_RANGE_MM[1] + 0.5, 1.0)
    b = np.arange(ANGLE_RANGE_DEG[0], ANGLE_RANGE_DEG[1] + 0.5, 1.0)
    return Lut2D(a, b, moment_map(a[:, None], b[None, :]))
