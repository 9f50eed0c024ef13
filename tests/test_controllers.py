import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softgait.controllers import (MOMENT_FILTER_HZ, MOTOR_RANGE_MM,
                                  ProsthesisState, TibiaPhaseState,
                                  admittance_equilibrium, admittance_target,
                                  ankle_controller, blend_commands,
                                  moment_feedback, step_controller,
                                  tibia_phase_update, tibia_reference_motor)
from softgait.lut import SyntheticMomentMap
from softgait.plant import DT


def run_phase_estimator(periods=20, T=1.47, amp=10.0, dt=0.01):
    """Drive the estimator with a clean sinusoidal tibia velocity and
    return (final state, trace of (time, gait_percent))."""
    state = TibiaPhaseState()
    trace = []
    n = int(periods * T / dt)
    for i in range(n):
        t = i * dt
        s = (t / T) % 1.0
        omega = -amp * (2 * math.pi / T) * math.sin(2 * math.pi * s)
        state = tibia_phase_update(state, omega, dt)
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
        assert state.L_s_norm == pytest.approx(state.L_s / 0.95)

    def test_holds_state_at_rest(self):
        state = TibiaPhaseState()
        out = tibia_phase_update(state, 0.0, 0.01)
        assert out.gait_percent == state.gait_percent
        assert out.L_s == state.L_s

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            tibia_phase_update(TibiaPhaseState(), 1.0, 0.0)

    # beyond about 1e154 deg/s the squares overflow Python floats
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=300))
    def test_stride_length_never_negative(self, omegas):
        # L_s = STRIDE_CALIBRATION * sqrt(2 * ms_theta), with ms_theta a
        # running mean of squares, so blend_commands never sees L_s < 0
        state = TibiaPhaseState()
        for omega in omegas:
            state = tibia_phase_update(state, omega, DT)
            assert state.L_s >= 0.0


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
        m = SyntheticMomentMap()
        for x in (-20.0, 0.0, 15.0):
            assert admittance_equilibrium(x, moment_lut) == pytest.approx(
                x / m.rho, abs=1e-9)


class TestAnkleController:
    def test_quasi_static_fixed_point(self, moment_lut):
        """When the ankle sits at the desired angle and the map moment is
        consistent, the command reproduces the current motor position."""
        m = SyntheticMomentMap()
        q_d = 4.0
        x = 12.0 / m.sigma + m.rho * q_d
        cmd = ankle_controller(q_d, q_d, 12.0, moment_lut)
        assert cmd == pytest.approx(x, abs=1e-9)

    def test_feedback_acts_on_angle_error(self, moment_lut):
        base = ankle_controller(5.0, 5.0, 0.0, moment_lut)
        ahead = ankle_controller(5.0, 3.0, 0.0, moment_lut)
        assert ahead - base == pytest.approx(0.45 * 2.0, abs=1e-9)

    def test_unreachable_moment_saturates(self, moment_lut):
        cmd = ankle_controller(0.0, 0.0, 1e5, moment_lut)
        assert cmd == MOTOR_RANGE_MM[1]


class TestStepController:
    # mid-stance phase at half the self-selected stride length, so the TC
    # command blends moment feedback with the gait reference
    STATE = ProsthesisState(M=15.0)
    PHASE = TibiaPhaseState(gait_percent=0.4, L_s=0.475)

    def test_tc_mode_has_no_admittance_fields(self, gait_lut, moment_lut):
        out = step_controller("TC", self.STATE, self.PHASE, 15.0,
                              gait_lut, moment_lut, DT)
        assert out.q_d is None and out.m_filtered is None
        x_g = tibia_reference_motor(0.4, 0.475, gait_lut, moment_lut)
        x_m = moment_feedback(15.0)
        expected = blend_commands(x_m, x_g, self.PHASE.L_s_norm)
        assert MOTOR_RANGE_MM[0] < expected < MOTOR_RANGE_MM[1]
        assert x_m != x_g
        assert out.x_cmd == expected

    def test_ac_mode_reports_admittance_fields(self, gait_lut, moment_lut):
        K_d = 15.0
        tc = step_controller("TC", self.STATE, self.PHASE, K_d,
                             gait_lut, moment_lut, DT)
        out = step_controller("AC", self.STATE, self.PHASE, K_d,
                              gait_lut, moment_lut, DT, m_prev=15.0)
        q_e = admittance_equilibrium(tc.x_cmd, moment_lut)
        assert out.q_d == pytest.approx(q_e + 15.0 / K_d)

    def test_moment_filter_initialization_and_update(self, gait_lut,
                                                     moment_lut):
        state = ProsthesisState(M=20.0)
        first = step_controller("AC", state, TibiaPhaseState(), 15.0,
                                gait_lut, moment_lut, DT, m_prev=None)
        assert first.m_filtered == pytest.approx(20.0)
        stepped = step_controller("AC", state, TibiaPhaseState(), 15.0,
                                  gait_lut, moment_lut, DT, m_prev=0.0)
        alpha = 1.0 - math.exp(-2 * math.pi * MOMENT_FILTER_HZ * DT)
        assert stepped.m_filtered == pytest.approx(alpha * 20.0)

    def test_unknown_mode_raises(self, gait_lut, moment_lut):
        with pytest.raises(ValueError):
            step_controller("XX", ProsthesisState(), TibiaPhaseState(),
                            15.0, gait_lut, moment_lut, DT)


class TestTibiaReference:
    def test_reference_realizes_gait_angle_unloaded(self, gait_lut,
                                                    moment_lut):
        m = SyntheticMomentMap()
        x = tibia_reference_motor(0.4, 0.95, gait_lut, moment_lut)
        q_ref = gait_lut.eval(0.4, 0.95)
        assert x / m.rho == pytest.approx(q_ref, abs=1e-9)

    def test_out_of_range_phase_is_clamped(self, gait_lut, moment_lut):
        a = tibia_reference_motor(1.5, 0.95, gait_lut, moment_lut)
        b = tibia_reference_motor(1.0, 0.95, gait_lut, moment_lut)
        assert a == pytest.approx(b)
