import numpy as np
import pytest

from softgait.analysis import (AnalysisSettings, SchemaMismatchError,
                               analyze_trial, compare_reports)
from softgait.config import RunConfig
from softgait.plant import generate_trial
from softgait.signals import TimeSeries
from softgait.stability.balance import detect_foot_strikes
from softgait.stability.stats import ALPHA
from softgait.stiffness import (average_cycle, prosthesis_cycles,
                                quasi_stiffness)

FAST_SETTINGS = AnalysisSettings(
    exclude_strides=5, window_strides=20, n_windows=5,
    points_per_window=2000,
    embedding_overrides={"ML": (10, 4), "AP": (10, 4), "VT": (10, 4)})


@pytest.fixture(scope="module")
def tc_report(small_tc_trial):
    return analyze_trial(small_tc_trial, FAST_SETTINGS)


@pytest.fixture(scope="module")
def ac_report(small_ac_trial):
    return analyze_trial(small_ac_trial, FAST_SETTINGS)


class TestAnalyzeTrial:
    def test_report_sections(self, tc_report):
        for key in ("meta", "n_analyzed_strides", "n_windows", "embedding",
                    "lyapunov", "divergence", "mos", "quasi_stiffness",
                    "profiles", "pendulum_length_m",
                    "pendulum_eigenfrequency"):
            assert key in tc_report

    def test_window_bookkeeping(self, tc_report):
        assert tc_report["n_windows"] == 5
        assert tc_report["n_analyzed_strides"] >= 24
        for axis in ("ML", "AP", "VT"):
            assert tc_report["embedding"][axis] == {"tau": 10, "dim": 4}
            assert len(tc_report["divergence"][axis]) == 10 * 100 + 1

    def test_pendulum_scale_is_plausible(self, tc_report):
        assert 0.8 < tc_report["pendulum_length_m"] < 1.2
        w0 = tc_report["pendulum_eigenfrequency"]
        assert w0 == pytest.approx(
            np.sqrt(9.81 / tc_report["pendulum_length_m"]))

    def test_mos_values_positive(self, tc_report):
        for side in ("left", "right"):
            for direction in ("ML", "AP"):
                entry = tc_report["mos"][side][direction]
                assert entry["mean"] > 0
                assert len(entry["per_cycle"]) > 10

    def test_tc_quasi_stiffness_terminal(self, tc_report):
        assert tc_report["quasi_stiffness"]["terminal"] == pytest.approx(
            -5.0, abs=2.0)

    def test_stiffness_sections_follow_the_library_pipeline(
            self, ac_report, small_ac_trial):
        # prosthesis_cycles -> average_cycle -> quasi_stiffness on the
        # analysed strikes, as the stiffness demo and criterion 1 call it
        rec = small_ac_trial
        strikes = detect_foot_strikes(
            TimeSeries(rec.markers["LHEEL"][:, 2], rec.rate),
            rec.meta["stride_period"])
        cycles = prosthesis_cycles(TimeSeries(rec.prosthesis["q"], rec.rate),
                                   TimeSeries(rec.prosthesis["M"], rec.rate),
                                   strikes[FAST_SETTINGS.exclude_strides:])
        avg = average_cycle(cycles)
        profile = quasi_stiffness(avg)
        assert ac_report["quasi_stiffness"] == {
            "stance_percent": profile.stance_percent.tolist(),
            "stiffness": [None if np.isnan(v) else v
                          for v in profile.stiffness.tolist()],
            "terminal": profile.terminal_value(60.0)}
        assert ac_report["profiles"] == {
            "moment_angle": {"q": avg.mean_angle.tolist(),
                             "M": avg.mean_moment.tolist()},
            "phase_portrait": {"q": avg.mean_angle.tolist(),
                               "qdot": cycles["qdot"].mean(axis=0).tolist()}}

    def test_ac_meta_propagates(self, ac_report):
        assert ac_report["meta"]["mode"] == "AC"
        assert ac_report["meta"]["K_d"] == 15.0

    def test_refuses_fewer_strides_than_the_windows_need(self,
                                                         small_tc_trial):
        # 30 windows of 20 strides need 49; no smaller window count is
        # swapped in
        settings = AnalysisSettings(
            exclude_strides=5, window_strides=20, n_windows=30,
            points_per_window=2000,
            embedding_overrides={"ML": (10, 3), "AP": (10, 3),
                                 "VT": (10, 3)})
        with pytest.raises(ValueError, match="need"):
            analyze_trial(small_tc_trial, settings)

    def test_default_trial_fills_the_default_windows(self):
        # strikes detected as analyze_trial detects them; the divergence
        # step is left out to keep the test fast
        rec = generate_trial(RunConfig().to_trial_spec())
        strikes = detect_foot_strikes(
            TimeSeries(rec.markers["LHEEL"][:, 2], rec.rate),
            rec.meta["stride_period"])
        s = AnalysisSettings()
        assert len(strikes) >= s.exclude_strides + s.window_strides \
            + s.n_windows

    def test_errors_when_everything_excluded(self, small_tc_trial):
        with pytest.raises(ValueError):
            analyze_trial(small_tc_trial,
                          AnalysisSettings(exclude_strides=500))

    def test_settings_reject_non_integer_counts(self):
        for bad in ({"n_windows": "5"}, {"window_strides": 25.0},
                    {"points_per_window": True}):
            with pytest.raises(TypeError):
                AnalysisSettings(**bad)


def fake_report(lam, mos_vals, mode="TC"):
    axes = ("ML", "AP", "VT")
    return {
        "meta": {"mode": mode},
        "lyapunov": {a: {"short": {"mean": lam, "sd": 0.0},
                         "long": {"mean": lam / 10.0, "sd": 0.0}}
                     for a in axes},
        "mos": {side: {d: {"mean": float(np.mean(mos_vals)),
                           "sd": 0.0, "per_cycle": list(mos_vals),
                           "skipped_cycles": []}
                       for d in ("ML", "AP")}
                for side in ("left", "right")},
    }


class TestCompareReports:
    def test_delta_lambda_arithmetic(self):
        rng = np.random.default_rng(0)
        base = fake_report(7.13, rng.normal(40.0, 2.0, 30))
        cand = fake_report(8.30, rng.normal(40.0, 2.0, 30), mode="AC")
        out = compare_reports(base, {"ac": cand})
        entry = out["candidates"]["ac"]["delta_lambda"]["ML"]["short"]
        assert entry["delta"] == pytest.approx(1.17)
        assert entry["improved"] is False

    def test_negative_delta_marks_improvement(self):
        base = fake_report(2.0, [1.0, 2.0, 3.0])
        cand = fake_report(1.5, [1.0, 2.0, 3.0])
        out = compare_reports(base, {"c": cand})
        assert out["candidates"]["c"]["delta_lambda"]["AP"]["short"]["improved"]

    def test_mos_ranksum_and_direction(self):
        rng = np.random.default_rng(1)
        base = fake_report(1.0, rng.normal(40.0, 2.0, 40))
        cand = fake_report(1.0, rng.normal(44.0, 2.0, 40))
        out = compare_reports(base, {"c": cand})
        entry = out["candidates"]["c"]["mos"]["left"]["ML"]
        assert entry["significant"]
        assert entry["improved"]
        assert entry["p_value"] < 0.01

    def test_alpha_recorded(self):
        base = fake_report(1.0, [1.0, 2.0])
        out = compare_reports(base, {})
        assert out["alpha"] == ALPHA == 0.01
        assert out["candidates"] == {}

    def test_schema_mismatch_raises(self):
        base = fake_report(1.0, [1.0, 2.0])
        with pytest.raises(SchemaMismatchError):
            compare_reports({"meta": {}}, {"c": base})
        with pytest.raises(SchemaMismatchError):
            compare_reports(base, {"c": {"lyapunov": {}}})
