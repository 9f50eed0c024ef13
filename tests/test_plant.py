import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import gait_like_velocity, reference_closed_loop
from softgait.config import RunConfig
from softgait.lut import RHO, SIGMA, moment_map
from softgait.plant import (ANKLE_DAMPING, DT, INERTIA_DEG,
                            MOTOR_LOOP_BANDWIDTH, PROSTHESIS_KEYS,
                            PlantState, _template, generate_trial,
                            ground_deflection, step_plant)

# AC K_d 10 at 63 kN/m, 20 strides, seed 3
COMPLIANT_RECORDING_SHA256 = (
    "2962666217c1fbc04b7832a9c60728fd2b949d159a43424ebcba955487011eb0")


class TestGroundDeflection:
    def test_rigid_surface_never_deflects(self):
        assert ground_deflection(1000.0, math.inf) == 0.0

    def test_linear_in_force_and_inverse_in_stiffness(self):
        assert ground_deflection(630.0, 63.0) == pytest.approx(10.0)
        assert ground_deflection(315.0, 63.0) == pytest.approx(5.0)
        assert ground_deflection(630.0, 126.0) == pytest.approx(5.0)

    def test_elementwise_on_arrays(self):
        force = np.array([0.0, 630.0, 630.0])
        k_g = np.array([math.inf, math.inf, 63.0])
        assert np.array_equal(ground_deflection(force, k_g),
                              [0.0, 0.0, 10.0])


class TestStepPlant:
    def test_motor_tracks_command(self):
        state = PlantState()
        for _ in range(100):   # 1 s at 40 Hz tracking bandwidth
            state = step_plant(state, 10.0, 0.0)
        assert state.x == pytest.approx(10.0, abs=1e-3)

    def test_ankle_settles_at_unloaded_angle(self):
        state = PlantState()
        for _ in range(200):
            state = step_plant(state, 10.0, 0.0)
        assert state.q == pytest.approx(10.0 / RHO, abs=1e-3)
        assert state.moment == pytest.approx(0.0, abs=1e-2)

    def test_constant_load_equilibrium(self):
        """Static balance: the map moment carries the external load."""
        load = 20.0
        state = PlantState()
        for _ in range(300):
            state = step_plant(state, 10.0, load)
        assert state.moment == pytest.approx(load, abs=1e-2)
        q_expected = 10.0 / RHO + load / (SIGMA * RHO)
        assert state.q == pytest.approx(q_expected, abs=1e-2)

    def test_matches_ode_solution_over_held_ticks(self):
        """Each tick solves the plant's ODE with the command and the load
        held: 100 ticks of random steps agree with a tight DOP853 solve."""
        w = 2.0 * math.pi * MOTOR_LOOP_BANDWIDTH

        def rhs(_, z, x_cmd, load):
            x, x_dot, q, q_dot = z
            return [x_dot, -2.0 * w * x_dot - w * w * (x - x_cmd), q_dot,
                    (load - moment_map(x, q) - ANKLE_DAMPING * q_dot)
                    / INERTIA_DEG]

        rng = np.random.default_rng(5)
        state = PlantState(x=3.0, x_dot=-40.0, q=1.5, q_dot=20.0)
        z = np.array([state.x, state.x_dot, state.q, state.q_dot])
        q_error = x_error = 0.0
        for x_cmd, load in zip(rng.uniform(-30.0, 30.0, 100),
                               rng.uniform(-10.0, 60.0, 100)):
            state = step_plant(state, x_cmd, load)
            sol = solve_ivp(rhs, (0.0, DT), z, method="DOP853", rtol=1e-12,
                            atol=1e-12, args=(x_cmd, load))
            z = sol.y[:, -1]
            q_error = max(q_error, abs(state.q - z[2]))
            x_error = max(x_error, abs(state.x - z[0]))
        assert q_error < 1e-9     # deg
        assert x_error < 1e-9     # mm
        assert state.moment == moment_map(state.x, state.q)


class TestTrialSpec:
    def test_rejects_out_of_range_values(self):
        spec = RunConfig(n_strides=10).to_trial_spec()
        # an AC spec: its K_d must also exceed SIGMA*RHO / 2
        for name, value in (("mode", "XX"), ("K_d", 0.0), ("K_d", -1.0),
                            ("K_d", SIGMA * RHO / 2),
                            ("ground_stiffness", 0.0),
                            ("ground_stiffness", math.nan),
                            ("n_strides", 1), ("n_strides", 10.5),
                            ("seed", -1), ("seed", 1.5),
                            ("stride_period", 0.0),
                            ("stride_period", -1.0), ("body_mass", 0.0),
                            ("body_mass", -59.0), ("period_jitter", -0.01),
                            ("period_jitter", 1 / 3), ("period_jitter", 0.6),
                            ("amplitude_jitter", -5.0),
                            ("amplitude_jitter", math.nan),
                            ("amplitude_jitter", 1 / 3),
                            ("amplitude_jitter", 1e200),
                            ("noise_mm", -1.0)):
            with pytest.raises(ValueError, match=name):
                replace(spec, **{name: value})


class TestGenerateTrial:
    def test_structure_and_lengths(self, small_tc_trial):
        rec = small_tc_trial
        n = rec.n_samples
        assert set(rec.markers) == {"LASI", "RASI", "LPSI", "RPSI", "LHEEL"}
        for arr in rec.markers.values():
            assert arr.shape == (n, 3)
        assert rec.cop_left.shape == (n, 3)
        assert set(rec.prosthesis) == {"x", "q", "M", "omega",
                                       "gait_percent", "L_s", "q_d", "x_cmd"}
        assert rec.rate == 100.0

    def test_event_spacing_matches_stride_period(self, small_tc_trial):
        gaps = np.diff(small_tc_trial.events_left)
        assert abs(np.mean(gaps) - 147.0) < 5.0
        assert np.all(gaps > 100)

    def test_right_events_interleave_left(self, small_tc_trial):
        rec = small_tc_trial
        mids = rec.events_right[:len(rec.events_left) - 1]
        assert np.all(mids > rec.events_left[:-1])
        assert np.all(mids < rec.events_left[1:])

    def test_deterministic_for_fixed_seed(self):
        spec = RunConfig(mode="TC", n_strides=6, seed=11).to_trial_spec()
        a, b = generate_trial(spec), generate_trial(spec)
        assert np.array_equal(a.markers["LHEEL"], b.markers["LHEEL"])
        assert np.array_equal(a.prosthesis["M"], b.prosthesis["M"])

    def test_seed_changes_output(self):
        a = generate_trial(
            RunConfig(mode="TC", n_strides=6, seed=11).to_trial_spec())
        b = generate_trial(
            RunConfig(mode="TC", n_strides=6, seed=12).to_trial_spec())
        assert not np.array_equal(a.markers["LHEEL"], b.markers["LHEEL"])

    def test_meta_records_condition(self, small_ac_trial):
        meta = small_ac_trial.meta
        assert meta["mode"] == "AC"
        assert meta["K_d"] == 15.0
        assert meta["ground_stiffness"] == "rigid"

    def test_tc_mode_logs_nan_admittance_target(self, small_tc_trial):
        assert np.all(np.isnan(small_tc_trial.prosthesis["q_d"]))

    def test_ac_mode_logs_admittance_target(self, small_ac_trial):
        assert np.all(np.isfinite(small_ac_trial.prosthesis["q_d"]))

    def test_rejects_too_few_strides(self):
        with pytest.raises(ValueError):
            generate_trial(RunConfig(mode="TC", n_strides=1).to_trial_spec())

    def test_vertical_force_peak_scales_with_mass(self):
        rec = generate_trial(RunConfig(mode="TC", n_strides=6, seed=0,
                                       noise_mm=0.0,
                                       amplitude_jitter=0.0).to_trial_spec())
        peak = np.max(rec.cop_left[:, 2])
        assert peak == pytest.approx(1.1 * 59.0 * 9.81, rel=0.01)

    def test_compliant_recording_is_pinned(self):
        """Every array of a compliant-ground trial, so the ground
        deflection and the generator's draw order are both covered.
        Values are hashed at the reports' nine significant digits, so
        last-ulp differences between platforms do not reach the digest."""
        rec = generate_trial(RunConfig(mode="AC", K_d=10.0,
                                       ground_stiffness=63.0, n_strides=20,
                                       seed=3).to_trial_spec())
        arrays = {"cop_left": rec.cop_left, "cop_right": rec.cop_right,
                  "events_left": rec.events_left,
                  "events_right": rec.events_right}
        arrays.update((f"markers/{k}", v) for k, v in rec.markers.items())
        arrays.update((f"prosthesis/{k}", v)
                      for k, v in rec.prosthesis.items())
        h = hashlib.sha256()
        for name in sorted(arrays):
            a = arrays[name]
            h.update(f"{name} {a.dtype.kind} {a.shape}\n".encode())
            h.update(",".join(map("{:.9g}".format, a.ravel().tolist()))
                     .encode())
        digest = h.hexdigest()
        assert digest == COMPLIANT_RECORDING_SHA256, (
            "the compliant-ground recording changed; if the change is "
            "intended, update COMPLIANT_RECORDING_SHA256 and say why in "
            f"CHANGES.md (sha256 now {digest})")


class TestClosedLoop:
    @pytest.mark.parametrize("seed", (0, 11))
    @pytest.mark.parametrize("ground", (math.inf, 63.0, 25.0))
    @pytest.mark.parametrize("mode, K_d", (
        ("TC", 15.0), ("AC", 10.0), ("AC", 15.0), ("AC", 20.0),
        # just above AC's stability bound SIGMA*RHO / 2, where the moment
        # loop rings
        ("AC", 2.6)))
    def test_matches_the_per_tick_reference(self, mode, K_d, ground, seed):
        """The staged loop (estimator and gait reference over the whole
        trial, then controller and plant) logs, bit for bit, what one loop
        stepping every stage with scalar table lookups logs."""
        spec = RunConfig(mode=mode, K_d=K_d, ground_stiffness=ground,
                         n_strides=20, seed=seed).to_trial_spec()
        _, omega, load = _template(spec)
        expected = reference_closed_loop(mode, K_d, omega, load)
        log = generate_trial(spec).prosthesis
        for key in PROSTHESIS_KEYS:
            assert np.array_equal(log[key], expected[key], equal_nan=True), \
                key


class TestLoadResponse:
    """A heavier body loads the ankle more, and both controllers yield to
    it as springs: the mid-stance angle rises by |dM| / K_d under AC and by
    |dM| / (SIGMA*RHO) under TC, whose motor holds its gait-surface
    position."""

    @staticmethod
    def mid_stance(mode, K_d, body_mass):
        """Mean angle and moment at 40 % of strides 10-28 of a noiseless
        trial on rigid ground."""
        rec = generate_trial(RunConfig(
            mode=mode, K_d=K_d, n_strides=30, seed=1, body_mass=body_mass,
            noise_mm=0.0, period_jitter=0.0,
            amplitude_jitter=0.0).to_trial_spec())
        strikes = rec.events_left[10:]
        at = strikes[:-1] + np.round(0.4 * np.diff(strikes)).astype(int)
        return rec.prosthesis["q"][at].mean(), rec.prosthesis["M"][at].mean()

    @pytest.mark.parametrize("mode, K_d, stiffness", [
        ("AC", 10.0, 10.0), ("AC", 20.0, 20.0), ("TC", 15.0, SIGMA * RHO)])
    def test_angle_rises_with_the_load(self, mode, K_d, stiffness):
        (q0, m0), (q1, m1), (q2, m2) = (self.mid_stance(mode, K_d, mass)
                                        for mass in (50.0, 59.0, 70.0))
        for dq, dm in ((q1 - q0, m1 - m0), (q2 - q1, m2 - m1)):
            assert dq / abs(dm) == pytest.approx(1.0 / stiffness, rel=0.1)


class TestGaitLikeVelocity:
    def test_deterministic_and_axis_dependent(self):
        a = gait_like_velocity("ML", seed=4)
        b = gait_like_velocity("ML", seed=4)
        c = gait_like_velocity("AP", seed=4)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_length(self):
        ts = gait_like_velocity("VT", seed=0, n_strides=20, pts_per_stride=50)
        assert len(ts) == 1000

    def test_stride_periodicity_dominates(self):
        ts = gait_like_velocity("ML", seed=1)
        x = ts.samples - np.mean(ts.samples)
        ac = np.correlate(x, x, "full")[len(x) - 1:]
        assert ac[100] > 0.5 * ac[0]   # strong correlation one stride later
