import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softgait.controllers import (DT, MOTOR_RANGE_MM, SSP,
                                  TibiaPhaseState, admittance_equilibrium,
                                  admittance_target, ankle_controller,
                                  blend_commands, moment_feedback,
                                  step_controller, tibia_phase_update,
                                  tibia_reference_motor)
from softgait.lut import RHO, SIGMA, InvalidLutError, Lut2D


def run_phase_estimator(periods=20, T=1.47, amp=10.0):
    """Drive the estimator with a clean sinusoidal tibia velocity and
    return (final state, trace of (time, gait_percent))."""
    state = TibiaPhaseState()
    trace = []
    n = int(periods * T / DT)
    for i in range(n):
        t = i * DT
        s = (t / T) % 1.0
        omega = -amp * (2 * math.pi / T) * math.sin(2 * math.pi * s)
        state = tibia_phase_update(state, omega)
        trace.append((s, state.gait_percent))
    return state, np.array(trace)


class TestPhaseEstimator:
    def test_gait_percent_tracks_true_phase(self):
        _, trace = run_phase_estimator()
        # after convergence the estimate follows the true stride fraction
        tail = trace[-400:]
        err = (tail[:, 1] - tail[:, 0] + 0.5) % 1.0 - 0.5
        assert np.max(np.abs(err)) < 0.06

    def test_gait_percent_zero_at_strike(self):
        _, trace = run_phase_estimator()
        strikes = np.nonzero(np.abs(trace[:, 0]) < 1e-9)[0]
        for k in strikes[-3:]:
            gp = trace[k, 1]
            assert min(gp, 1.0 - gp) < 0.02

    def test_stride_length_converges_near_ssp(self):
        state, _ = run_phase_estimator()
        assert 0.5 < state.L_s < 1.5

    def test_holds_state_at_rest(self):
        state = TibiaPhaseState()
        out = tibia_phase_update(state, 0.0)
        assert out.gait_percent == state.gait_percent
        assert out.L_s == state.L_s

    # beyond about 1e154 deg/s the squares overflow Python floats
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=300))
    def test_stride_length_never_negative(self, omegas):
        # L_s = STRIDE_CALIBRATION * sqrt(2 * ms_theta), with ms_theta a
        # running mean of squares, so blend_commands never sees L_s < 0;
        # the phase is an angle taken mod 2 pi, so the gait surface is
        # read inside its stride fraction axis
        state = TibiaPhaseState()
        for omega in omegas:
            state = tibia_phase_update(state, omega)
            assert state.L_s >= 0.0
            assert 0.0 <= state.gait_percent < 1.0


class TestBlending:
    def test_endpoints(self):
        assert blend_commands(2.0, 7.0, 0.0) == pytest.approx(2.0)
        assert blend_commands(2.0, 7.0, 1.0) == pytest.approx(7.0)
        assert blend_commands(2.0, 7.0, 3.0) == pytest.approx(7.0)

    def test_midpoint_is_average(self):
        assert blend_commands(2.0, 6.0, 0.5) == pytest.approx(4.0)

    def test_monotone_in_stride_length(self):
        vals = [blend_commands(0.0, 10.0, u) for u in np.linspace(0, 1, 21)]
        assert np.all(np.diff(vals) >= -1e-12)


class TestMomentFeedback:
    def test_proportional_and_clamped(self):
        assert moment_feedback(10.0) == pytest.approx(1.0)
        assert moment_feedback(1e5) == MOTOR_RANGE_MM[1]
        assert moment_feedback(-1e5) == MOTOR_RANGE_MM[0]


class TestAdmittanceLaw:
    def test_target_offsets_equilibrium_by_moment_over_stiffness(self):
        assert admittance_target(5.0, 30.0, 15.0) == pytest.approx(7.0)
        assert admittance_target(5.0, -30.0, 15.0) == pytest.approx(3.0)
        assert admittance_target(5.0, 0.0, 15.0) == pytest.approx(5.0)

    def test_target_clamps_to_angle_range(self):
        assert admittance_target(0.0, 1e6, 10.0) == 30.0

    def test_rejects_nonpositive_stiffness(self):
        with pytest.raises(ValueError):
            admittance_target(0.0, 0.0, 0.0)

    def test_equilibrium_is_unloaded_angle(self, moment_lut):
        for x in (-20.0, 0.0, 15.0):
            assert admittance_equilibrium(x, moment_lut) == pytest.approx(
                x / RHO, abs=1e-9)


class TestAnkleController:
    def test_quasi_static_fixed_point(self, moment_lut):
        """When the ankle sits at the desired angle and the map moment is
        consistent, the command reproduces the current motor position."""
        q_d = 4.0
        x = RHO * q_d - 12.0 / SIGMA
        cmd = ankle_controller(q_d, q_d, 12.0, moment_lut)
        assert cmd == pytest.approx(x, abs=1e-9)

    def test_feedback_acts_on_angle_error(self, moment_lut):
        base = ankle_controller(5.0, 5.0, 0.0, moment_lut)
        ahead = ankle_controller(5.0, 3.0, 0.0, moment_lut)
        assert ahead - base == pytest.approx(0.45 * 2.0, abs=1e-9)

    def test_unreachable_moment_saturates(self, moment_lut):
        # the plantarflexor moment falls as the motor advances, so a moment
        # above the slice's range is sought at the lower motor edge
        cmd = ankle_controller(0.0, 0.0, 1e5, moment_lut)
        assert cmd == MOTOR_RANGE_MM[0]

    def test_table_not_monotone_in_the_motor_raises(self):
        # the moment rises then falls along the motor axis, so there is no
        # one motor position for a moment; that is a bad table, not a
        # moment beyond the motor's reach
        lut = Lut2D([-40.0, 0.0, 40.0], [-30.0, 30.0],
                    [[0.0, -10.0], [5.0, -5.0], [0.0, -10.0]])
        with pytest.raises(InvalidLutError):
            ankle_controller(0.0, 0.0, 1.0, lut)


class TestStepController:
    # mid-stance phase at half the self-selected stride length, so the TC
    # command blends moment feedback with the gait reference
    M = 15.0
    GAIT_PERCENT = 0.4
    L_S = 0.475

    def x_g(self, gait_lut, moment_lut):
        return float(tibia_reference_motor(
            np.array([self.GAIT_PERCENT]), np.array([self.L_S]), gait_lut,
            moment_lut)[0])

    def test_tc_mode_has_no_admittance_fields(self, gait_lut, moment_lut):
        x_g = self.x_g(gait_lut, moment_lut)
        out = step_controller("TC", 0.0, self.M, x_g, self.L_S / SSP, 15.0,
                              moment_lut)
        assert math.isnan(out.q_d)
        x_m = moment_feedback(15.0)
        expected = blend_commands(x_m, x_g, self.L_S / SSP)
        assert MOTOR_RANGE_MM[0] < expected < MOTOR_RANGE_MM[1]
        assert x_m != x_g
        assert out.x_cmd == expected

    def test_ac_mode_reports_admittance_fields(self, gait_lut, moment_lut):
        K_d = 15.0
        x_g = self.x_g(gait_lut, moment_lut)
        tc = step_controller("TC", 0.0, self.M, x_g, self.L_S / SSP, K_d,
                             moment_lut)
        out = step_controller("AC", 0.0, self.M, x_g, self.L_S / SSP, K_d,
                              moment_lut)
        q_e = admittance_equilibrium(tc.x_cmd, moment_lut)
        assert out.q_d == pytest.approx(q_e + self.M / K_d)

    def test_unknown_mode_raises(self, moment_lut):
        with pytest.raises(ValueError):
            step_controller("XX", 0.0, 0.0, 0.0, 0.0, 15.0, moment_lut)


class TestTibiaReference:
    def test_reference_realizes_gait_angle_unloaded(self, gait_lut,
                                                    moment_lut):
        gait_percent = np.array([0.0, 0.1, 0.4, 0.65, 0.9])
        x = tibia_reference_motor(gait_percent, np.full(5, 0.95), gait_lut,
                                  moment_lut)
        for x_i, gp in zip(x, gait_percent):
            q_ref = gait_lut.eval(gp, 0.95)
            assert x_i / RHO == pytest.approx(q_ref, abs=1e-9)

    def test_out_of_range_phase_is_clamped(self, gait_lut, moment_lut):
        a, b = tibia_reference_motor(np.array([1.5, 1.0]), np.full(2, 0.95),
                                     gait_lut, moment_lut)
        assert a == b
        # stride lengths beyond the surface's axis read its edge
        short, edge = tibia_reference_motor(
            np.full(2, 0.4), np.array([0.0, gait_lut.axis_b[0]]), gait_lut,
            moment_lut)
        assert short == edge

    def test_matches_the_scalar_lookups(self, gait_lut, moment_lut):
        """Each tick's reference is, bit for bit, the scalar gait-surface
        lookup and zero-moment inversion at the clamped estimate."""
        rng = np.random.default_rng(2)
        gait_percent = rng.uniform(-0.1, 1.1, 500)
        # beyond 1.5 m push-off asks for an angle no motor position unloads
        L_s = rng.uniform(0.0, 1.5, 500)
        x = tibia_reference_motor(gait_percent, L_s, gait_lut, moment_lut)
        for x_i, gp, ls in zip(x.tolist(), gait_percent.tolist(),
                               L_s.tolist()):
            q_ref = gait_lut.eval(min(max(gp, 0.0), 1.0),
                                  min(max(ls, 0.2), 2.0))
            assert x_i == moment_lut.invert(0.0, ("b", q_ref))
