"""Tibia and admittance controllers as deterministic 100 Hz state machines.

The tibia controller (TC) is a phase-variable controller: tibia angular
velocity drives a phase-plane estimator producing gait percent and stride
length, a gait surface gives the reference ankle angle, and the moment map
inversion turns that into a motor command.  The admittance controller (AC)
wraps the TC: it derives the unloaded equilibrium angle from the TC
command and offsets it by M / K_d to emulate the chosen quasi-stiffness.
Only stiffness is emulated: the law has no damping or inertia terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lut import MOMENT_MAP, Lut2D

MOTOR_RANGE_MM = (-40.0, 40.0)
ANGLE_RANGE_DEG = (-30.0, 30.0)
SSP = 0.95                  # m, self-selected-pace stride length
LEAK_TAU = 2.0              # s, leak of the tibia-angle integrator
STRIDE_CALIBRATION = 0.095  # m of stride length per deg of orbit radius
K_M = 0.1                   # mm/Nm, moment feedback gain of the TC path
FB_GAIN = 0.45              # mm/deg, angle feedback of the AC position loop
MOMENT_FILTER_HZ = 4.0      # low-pass on measured moment in the AC path
PEAK_DORSIFLEXION = 8.0     # deg, gait surface plateau at SSP
PUSHOFF_PLANTARFLEXION = -12.0  # deg, gait surface push-off at SSP


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


@dataclass
class ProsthesisState:
    """What the controllers see each tick: motor position x (mm), ankle
    angle q (deg, dorsiflexion positive) and ankle moment M (Nm)."""

    x: float = 0.0
    q: float = 0.0
    M: float = 0.0


@dataclass
class TibiaPhaseState:
    """Phase-plane estimator state.

    The tibia angle is recovered from angular velocity by leaky
    integration (time constant LEAK_TAU kills drift).  The phase plane uses
    (theta - running mean, omega / omega_scale) with omega_scale the ratio
    of the two running RMS levels, which makes the orbit near-circular;
    gait percent is the normalized polar angle and stride length is the
    orbit radius through a linear calibration.
    """

    theta_integral: float = 0.0
    phase_angle: float = 0.0
    gait_percent: float = 0.0
    L_s: float = 0.0
    # estimator internals
    theta_mean: float = 0.0
    ms_theta: float = 0.0
    ms_omega: float = 0.0

    @property
    def L_s_norm(self) -> float:
        return self.L_s / SSP


_OMEGA_FLOOR = 1e-9


def tibia_phase_update(state: TibiaPhaseState, omega: float,
                       dt: float) -> TibiaPhaseState:
    """Advance the phase-plane estimator by one tick of tibia velocity."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    leak = dt / LEAK_TAU
    theta = state.theta_integral * (1.0 - leak) + omega * dt
    theta_mean = state.theta_mean + (theta - state.theta_mean) * leak
    theta_c = theta - theta_mean
    ms_theta = state.ms_theta + (theta_c ** 2 - state.ms_theta) * leak
    ms_omega = state.ms_omega + (omega ** 2 - state.ms_omega) * leak

    if ms_omega < _OMEGA_FLOOR and abs(omega) < _OMEGA_FLOOR:
        # no motion: hold phase and stride length
        return TibiaPhaseState(
            theta_integral=theta, phase_angle=state.phase_angle,
            gait_percent=state.gait_percent, L_s=state.L_s,
            theta_mean=theta_mean, ms_theta=ms_theta, ms_omega=ms_omega)

    omega_scale = math.sqrt(ms_omega / ms_theta) if ms_theta > _OMEGA_FLOOR else 1.0
    phase = math.atan2(-omega / omega_scale, theta_c) % (2.0 * math.pi)
    L_s = state.L_s
    if phase - state.phase_angle < -math.pi:  # the orbit wrapped: new stride
        radius = math.sqrt(2.0 * ms_theta)
        L_s = STRIDE_CALIBRATION * radius
    return TibiaPhaseState(
        theta_integral=theta, phase_angle=phase,
        gait_percent=phase / (2.0 * math.pi), L_s=L_s,
        theta_mean=theta_mean, ms_theta=ms_theta, ms_omega=ms_omega)


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


def tibia_reference_motor(gait_percent: float, L_s: float, gait_lut: Lut2D,
                          moment_lut: Lut2D) -> float:
    """Reference motor position: gait surface gives the reference ankle
    angle, whose unloaded (zero-moment) motor position is looked up."""
    gp = _clamp(gait_percent, gait_lut.axis_a[0], gait_lut.axis_a[-1])
    ls = _clamp(L_s, gait_lut.axis_b[0], gait_lut.axis_b[-1])
    q_ref = gait_lut.eval(gp, ls)
    return moment_lut.invert(0.0, ("b", q_ref))


def admittance_equilibrium(x_d_tc: float, moment_lut: Lut2D) -> float:
    """Virtual unloaded ankle angle realized by the TC motor command."""
    x = _clamp(x_d_tc, moment_lut.axis_a[0], moment_lut.axis_a[-1])
    return moment_lut.invert(0.0, ("a", x))


def admittance_target(q_e: float, M: float, K_d: float) -> float:
    """Admittance law: desired angle is the equilibrium offset by M / K_d."""
    if not K_d > 0:
        raise ValueError("K_d must be positive")
    return _clamp(q_e + M / K_d, *ANGLE_RANGE_DEG)


def ankle_controller(q_d: float, q: float, M: float,
                     moment_lut: Lut2D) -> float:
    """Feedforward (moment-map inversion at the desired angle) plus
    proportional feedback on the angle error."""
    qd = _clamp(q_d, moment_lut.axis_b[0], moment_lut.axis_b[-1])
    try:
        x_ff = moment_lut.invert(M, ("b", qd))
    except ValueError:
        # moment not reachable at this angle: saturate at the range edge
        lo, hi = moment_lut.axis_a[0], moment_lut.axis_a[-1]
        x_ff = hi if M > moment_lut.eval(hi, qd) else lo
    x_fb = FB_GAIN * (qd - q)
    return _clamp(x_ff + x_fb, MOTOR_RANGE_MM[0], MOTOR_RANGE_MM[1])


@dataclass
class ControllerOutput:
    """One tick of controller diagnostics alongside the motor command."""

    x_cmd: float
    q_d: float | None = None
    m_filtered: float | None = None


def step_controller(mode: str, state: ProsthesisState, phase: TibiaPhaseState,
                    K_d: float, gait_lut: Lut2D, moment_lut: Lut2D, dt: float,
                    m_prev: float | None = None) -> ControllerOutput:
    """Compose one control tick of length `dt` in either TC or AC mode.

    `m_prev` is last tick's filtered moment; the AC path low-passes the
    measured moment before the admittance law because the feedforward loop
    gain on the raw moment exceeds one (1 + sigma*rho / K_d) and would
    otherwise limit-cycle against the ankle dynamics.
    """
    x_g = tibia_reference_motor(phase.gait_percent, phase.L_s, gait_lut,
                                moment_lut)
    x_m = moment_feedback(state.M)
    x_d_tc = _clamp(blend_commands(x_m, x_g, phase.L_s_norm), *MOTOR_RANGE_MM)
    if mode == "TC":
        return ControllerOutput(x_cmd=x_d_tc)
    if mode == "AC":
        if m_prev is None:
            m_f = state.M
        else:
            alpha = 1.0 - math.exp(-2.0 * math.pi
                                   * MOMENT_FILTER_HZ * dt)
            m_f = m_prev + alpha * (state.M - m_prev)
        q_e = admittance_equilibrium(x_d_tc, moment_lut)
        q_d = admittance_target(q_e, m_f, K_d)
        # raw moment in the map inversion keeps the position loop exact;
        # only the admittance offset sees the filtered moment
        x_d_ac = ankle_controller(q_d, state.q, state.M, moment_lut)
        return ControllerOutput(x_cmd=x_d_ac, q_d=q_d, m_filtered=m_f)
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
    return Lut2D(a, b, MOMENT_MAP(a[:, None], b[None, :]))
