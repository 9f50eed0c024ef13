import collections
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import left_strikes
from softgait import analysis
from softgait.analysis import AnalysisSettings, analyze_trial
from softgait.config import RunConfig
from softgait.plant import generate_trial
from softgait.signals import TimeSeries, moving_average
from softgait.stability.stats import (ALPHA, EXPONENTS, MARGINS,
                                      SchemaMismatchError, compare_reports)
from softgait.stiffness import (average_cycle, prosthesis_cycles,
                                quasi_stiffness)

FAST_SETTINGS = AnalysisSettings(
    exclude_strides=5, window_strides=20, n_windows=5,
    points_per_window=2000,
    embedding_overrides={axis: {"tau": 10, "dim": 4}
                         for axis in ("ML", "AP", "VT")})


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
        # the TC motor holds its gait-surface position: a spring of SIGMA*RHO
        assert tc_report["quasi_stiffness"]["terminal"] == pytest.approx(
            5.0, abs=2.0)

    def test_stiffness_sections_follow_the_library_pipeline(
            self, ac_report, small_ac_trial):
        # prosthesis_cycles -> average_cycle -> quasi_stiffness on the
        # analysed strikes, as the stiffness demo and criterion 1 call it
        rec = small_ac_trial
        strikes = left_strikes(rec)
        cycles = prosthesis_cycles(TimeSeries(rec.prosthesis["q"], rec.rate),
                                   TimeSeries(rec.prosthesis["M"], rec.rate),
                                   strikes[FAST_SETTINGS.exclude_strides:])
        avg = average_cycle(cycles)
        profile = quasi_stiffness(avg)
        assert ac_report["quasi_stiffness"] == {
            "stance_percent": profile.stance_percent.tolist(),
            "stiffness": [None if np.isnan(v) else v
                          for v in profile.stiffness.tolist()],
            "terminal": profile.terminal_value()}
        # each averaged signal once: the angle, the moment and the
        # angular velocity
        assert ac_report["profiles"] == {
            name: cycles[name].mean(axis=0).tolist()
            for name in ("q", "M", "qdot")}

    @pytest.mark.parametrize("events", [lambda e: e + 5,
                                        lambda e: e[:0]],
                             ids=["shifted", "emptied"])
    def test_reads_no_ground_truth_events(self, small_tc_trial, tc_report,
                                          events):
        # a lab recording has no ground-truth strikes: both sides' strikes
        # come from what the markers and the force channels record
        rec = replace(small_tc_trial,
                      events_left=events(small_tc_trial.events_left),
                      events_right=events(small_tc_trial.events_right))
        assert repr(analyze_trial(rec, FAST_SETTINGS)) == repr(tc_report)

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
            embedding_overrides={axis: {"tau": 10, "dim": 3}
                                 for axis in ("ML", "AP", "VT")})
        with pytest.raises(ValueError, match="need"):
            analyze_trial(small_tc_trial, settings)

    def test_default_trial_fills_the_default_windows(self, default_trial):
        # strikes detected as analyze_trial detects them; the divergence
        # step is left out to keep the test fast
        rec = default_trial
        strikes = left_strikes(rec)
        s = AnalysisSettings()
        assert len(strikes) >= s.exclude_strides + s.window_strides \
            + s.n_windows

    def test_force_noise_moves_no_stride_or_margin(self, default_trial):
        # 10 N sd (1.7 % of body weight) crosses the stance threshold in
        # swing; the debounce drops those runs and counts them.  One small
        # window: the margins depend only on the strikes and exclude_strides
        settings = AnalysisSettings(
            window_strides=20, n_windows=1, points_per_window=2000,
            embedding_overrides=FAST_SETTINGS.embedding_overrides)
        rng = np.random.default_rng(1)
        noisy = replace(default_trial,
                        cop_left=default_trial.cop_left.copy(),
                        cop_right=default_trial.cop_right.copy())
        for cop in (noisy.cop_left, noisy.cop_right):
            cop[:, 2] += rng.normal(0.0, 10.0, len(cop))
        clean = analyze_trial(default_trial, settings)
        got = analyze_trial(noisy, settings)
        assert clean["n_analyzed_strides"] == got["n_analyzed_strides"] == 174
        for side, cycles in (("left", 174), ("right", 173)):
            assert clean["mos"][side]["stance"] == {"runs_dropped": 0,
                                                    "gaps_closed": 0}
            assert got["mos"][side]["stance"]["runs_dropped"] > 0
            for direction in ("ML", "AP"):
                entry = got["mos"][side][direction]
                assert len(entry["per_cycle"]) == cycles
                assert entry["mean"] == pytest.approx(
                    clean["mos"][side][direction]["mean"], rel=0, abs=0.01)
        assert got["quasi_stiffness"] == clean["quasi_stiffness"]

    def test_errors_when_everything_excluded(self, small_tc_trial):
        with pytest.raises(ValueError):
            analyze_trial(small_tc_trial,
                          AnalysisSettings(exclude_strides=500))

    def test_settings_reject_non_integer_counts(self):
        for bad in ({"n_windows": "5"}, {"window_strides": 25.0},
                    {"points_per_window": True}):
            with pytest.raises(TypeError):
                AnalysisSettings(**bad)


class TestCopAverage:
    """The CoP is averaged over COP_WINDOW seconds, whatever the
    recording's rate: a CoP step becomes a ramp of the same duration."""

    @pytest.mark.parametrize("rate", [100.0, 200.0])
    def test_a_step_ramps_for_a_tenth_of_a_second(self, rate):
        at = int(rate)                     # the step, 1 s in
        step = np.zeros(2 * at)
        step[at:] = 30.0
        out = analysis._average_cop(step, rate)
        window = round(0.1 * rate)
        assert np.all(out[:at] == 0.0)
        # each sample of the window adds 1/window of the step
        assert np.allclose(out[at:at + window],
                           30.0 * np.arange(1, window + 1) / window,
                           rtol=0, atol=1e-12)
        assert np.all(out[at + window - 1:] == 30.0)

    def test_the_ramp_lasts_as_long_at_either_rate(self):
        ramps = []
        for rate in (100.0, 200.0):
            step = np.repeat([0.0, 30.0], int(rate))
            out = analysis._average_cop(step, rate)
            # seconds from the step up to and including full height
            ramps.append((np.count_nonzero((out > 0) & (out < 30)) + 1)
                         / rate)
        assert ramps == [0.1, 0.1]

    def test_ten_samples_at_100_hz(self):
        x = np.random.default_rng(0).standard_normal(500)
        assert np.array_equal(analysis._average_cop(x, 100.0),
                              moving_average(TimeSeries(x, 100.0), 10).samples)


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


@pytest.fixture(scope="module")
def other_seed_report():
    """An AC trial at another seed than tc_report's: same-seed trials
    share their markers and CoP, so their exponents and margins agree."""
    rec = generate_trial(RunConfig(mode="AC", K_d=15.0, n_strides=45, seed=8))
    return analyze_trial(rec, FAST_SETTINGS)


class TestCompareReports:
    def test_swapping_baseline_and_candidate_is_antisymmetric(
            self, tc_report, ac_report, other_seed_report):
        for a, b in ((tc_report, ac_report), (tc_report, other_seed_report)):
            ab = compare_reports(a, {"c": b})["candidates"]["c"]
            ba = compare_reports(b, {"c": a})["candidates"]["c"]
            for axis in ("ML", "AP", "VT"):
                for horizon in ("short", "long"):
                    d_ab = ab["delta_lambda"][axis][horizon]["delta"]
                    d_ba = ba["delta_lambda"][axis][horizon]["delta"]
                    assert d_ba == -d_ab
            for side in ("left", "right"):
                for direction in ("ML", "AP"):
                    assert ba["mos"][side][direction]["p_value"] == \
                        ab["mos"][side][direction]["p_value"]
        # the seeds differ, so the check is not one of zeros and ones
        assert ab["delta_lambda"]["ML"]["short"]["delta"] != 0
        assert ab["mos"]["left"]["ML"]["p_value"] < 1

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

    def test_schema_messages_name_the_first_bad_field(self):
        """Fields are checked in one order: meta, the exponent means,
        the MOS means, then the MOS samples."""
        base = fake_report(1.0, [1.0, 2.0])
        no_mean = fake_report(1.0, [1.0, 2.0])
        del no_mean["lyapunov"]["AP"]["long"]["mean"]
        both = fake_report(1.0, [1.0, 2.0])
        both["mos"]["left"]["ML"]["per_cycle"] = []
        both["mos"]["right"]["AP"]["mean"] = True
        for report, message in (
                ([base], "report missing meta"),
                ({"meta": {}}, "report missing lyapunov"),
                ({"meta": {}, "lyapunov": []}, "report missing lyapunov.ML"),
                (no_mean, "report missing lyapunov.AP.long.mean"),
                (both, "report mos.right.AP.mean is not a finite number")):
            for baseline, candidate in ((report, base), (base, report)):
                with pytest.raises(SchemaMismatchError) as err:
                    compare_reports(baseline, {"c": candidate})
                assert str(err.value) == message
        del both["mos"]["right"]["AP"]["mean"]
        with pytest.raises(SchemaMismatchError, match="^report missing "
                           r"mos\.right\.AP\.mean$"):
            compare_reports(both, {})
        both["mos"]["right"]["AP"]["mean"] = 1.5
        with pytest.raises(SchemaMismatchError) as err:
            compare_reports(base, {"a": base, "b": both})
        assert str(err.value) == ("report mos.left.ML.per_cycle is not a "
                                  "non-empty list of finite numbers")

    def test_each_field_is_read_once(self):
        """The baseline is fetched and checked once, however many
        candidates it is compared with, and so is each candidate."""
        reads = collections.Counter()

        class Counting(dict):
            def __getitem__(self, key):
                if key in ("meta", "mean", "per_cycle"):
                    reads[id(self), key] += 1
                return super().__getitem__(key)

        def counting(obj):
            if isinstance(obj, dict):
                return Counting({k: counting(v) for k, v in obj.items()})
            return obj

        base = counting(fake_report(1.0, [1.0, 2.0, 3.0]))
        cands = {name: counting(fake_report(lam, [2.0, 4.0]))
                 for name, lam in (("a", 0.5), ("b", 2.0))}
        out = compare_reports(base, cands)
        assert out["candidates"]["b"]["delta_lambda"]["VT"]["long"] == {
            "delta": pytest.approx(0.1), "improved": False}
        # meta, 6 exponent means, 4 MOS means and 4 MOS samples, each
        # read once per report
        assert len(reads) == 3 * 15
        assert set(reads.values()) == {1}


@pytest.fixture(scope="module")
def demo_settings():
    """The windows demos/cli_workflow.py analyses its 60-stride trials at."""
    demo = Path(__file__).parent.parent / "demos" / "cli_workflow.py"
    return AnalysisSettings(**runpy.run_path(str(demo))["ANALYSIS"])


@pytest.fixture(scope="module")
def demo_ac_trial():
    return generate_trial(RunConfig(mode="AC", K_d=15.0, n_strides=60,
                                    seed=1))


@pytest.fixture(scope="module")
def demo_ac_report(demo_ac_trial, demo_settings):
    return analyze_trial(demo_ac_trial, demo_settings)


class TestMetamorphic:
    """Transforms of a recording or a comparison, and how the physics says
    the result must follow them."""

    def test_translation_moves_no_exponent_or_margin(
            self, demo_ac_trial, demo_ac_report, demo_settings):
        # mm along (ML, AP, VT); a CoP's columns are ML, AP and force, so
        # the one shift moves its position and leaves its force
        shift = np.array([100.0, 5000.0, 0.0])
        rec = demo_ac_trial
        moved = analyze_trial(replace(
            rec, markers={k: v + shift for k, v in rec.markers.items()},
            cop_left=rec.cop_left + shift, cop_right=rec.cop_right + shift),
            demo_settings)
        assert moved["embedding"] == demo_ac_report["embedding"]
        for axis, horizon in EXPONENTS:
            np.testing.assert_allclose(
                moved["lyapunov"][axis][horizon]["mean"],
                demo_ac_report["lyapunov"][axis][horizon]["mean"],
                rtol=1e-9, atol=0)
        for side, direction in MARGINS:
            got = moved["mos"][side][direction]
            want = demo_ac_report["mos"][side][direction]
            for key in ("mean", "per_cycle"):
                np.testing.assert_allclose(got[key], want[key], rtol=1e-9,
                                           atol=0)

    def test_swapping_baseline_and_candidate_flips_every_delta(
            self, demo_ac_report, demo_settings):
        tc = analyze_trial(generate_trial(RunConfig(mode="TC", n_strides=60,
                                                    seed=2)), demo_settings)
        ab = compare_reports(tc, {"c": demo_ac_report})["candidates"]["c"]
        ba = compare_reports(demo_ac_report, {"c": tc})["candidates"]["c"]
        for axis, horizon in EXPONENTS:
            d_ab = ab["delta_lambda"][axis][horizon]["delta"]
            assert d_ab != 0
            assert ba["delta_lambda"][axis][horizon]["delta"] == -d_ab
        for side, direction in MARGINS:
            assert ba["mos"][side][direction]["p_value"] == \
                ab["mos"][side][direction]["p_value"]
