import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import softgait
from softgait.analysis import AnalysisSettings, analyze_trial
from softgait.cli import main
from softgait.config import ConfigError, RunConfig
from softgait.io import (MANIFEST_NAME, RECORDING_NAME, RecordingIOError,
                         _round_sig, load_recording, load_report,
                         save_recording, save_report, write_plot_csvs)
from softgait.plant import Perturbation, generate_trial

TINY_ANALYSIS = {
    "exclude_strides": 5, "window_strides": 20, "n_windows": 5,
    "points_per_window": 2000,
    "embedding_overrides": {"ML": [10, 4], "AP": [10, 4], "VT": [10, 4]},
}


class TestRecordingRoundTrip:
    def test_everything_survives(self, small_tc_trial, tmp_path):
        manifest = save_recording(small_tc_trial, str(tmp_path / "rec"))
        # older manifests also carry `excluded_strides`, which is ignored
        shutil.copytree(tmp_path / "rec", tmp_path / "legacy")
        legacy = str(tmp_path / "legacy" / "manifest.json")
        with open(legacy) as fh:
            raw = json.load(fh)
        with open(legacy, "w") as fh:
            json.dump(dict(raw, excluded_strides=25), fh)
        rec = small_tc_trial
        for path in (manifest, legacy):
            back = load_recording(path)
            assert back.rate == rec.rate
            assert back.meta == rec.meta
            assert np.array_equal(back.events_left, rec.events_left)
            assert np.array_equal(back.events_right, rec.events_right)
            assert back.markers.keys() == rec.markers.keys()
            assert back.prosthesis.keys() == rec.prosthesis.keys()
            pairs = ([(back.markers[k], rec.markers[k]) for k in rec.markers]
                     + [(back.prosthesis[k], rec.prosthesis[k])
                        for k in rec.prosthesis]
                     + [(back.cop_left, rec.cop_left),
                        (back.cop_right, rec.cop_right)])
            for got, want in pairs:
                assert np.array_equal(got, want, equal_nan=True)
            # TC mode logs an undefined admittance target; it must stay NaN
            assert np.all(np.isnan(back.prosthesis["q_d"]))
        settings = AnalysisSettings(**TINY_ANALYSIS)
        reports = [json.dumps(analyze_trial(load_recording(p), settings),
                              sort_keys=True) for p in (manifest, legacy)]
        assert reports[0] == reports[1]

    def test_two_saves_are_byte_identical(self, small_tc_trial, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            save_recording(small_tc_trial, str(d))
        for name in (RECORDING_NAME, MANIFEST_NAME):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()

    def test_load_accepts_directory(self, small_tc_trial, tmp_path):
        out = str(tmp_path / "rec2")
        save_recording(small_tc_trial, out)
        rec = load_recording(out)
        assert rec.n_samples == small_tc_trial.n_samples

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(RecordingIOError):
            load_recording(str(tmp_path / "nowhere"))


class TestReportIO:
    def test_round_trip_and_byte_identity(self, tmp_path):
        report = {"a": 1.23456789012345, "b": [float("nan"), 2.0],
                  "nested": {"c": float("inf"), "d": "text"}}
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        save_report(report, p1)
        save_report(report, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        back = load_report(p1)
        assert back["a"] == pytest.approx(1.23456789012345, rel=1e-8)
        assert back["b"][0] is None and back["nested"]["c"] is None

    def test_rounding_is_idempotent(self):
        obj = {"x": [1.0 / 3.0, 2.0 / 7.0]}
        once = _round_sig(obj)
        assert _round_sig(once) == once

    def test_bad_report_file_raises(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(RecordingIOError):
            load_report(str(p))


class TestPlotCsvs:
    def test_files_written(self, tmp_path):
        report = {
            "quasi_stiffness": {"stance_percent": [20.0, 30.0],
                                "stiffness": [10.0, None]},
            "profiles": {"moment_angle": {"q": [0.0, 1.0], "M": [0.0, 15.0]},
                         "phase_portrait": {"q": [0.0, 1.0],
                                            "qdot": [1.0, 0.0]}},
            "divergence": {"ML": [0.0, 0.5, 1.0]},
        }
        write_plot_csvs(report, str(tmp_path))
        for name in ("stiffness_profile.csv", "moment_angle.csv",
                     "phase_portrait.csv", "divergence_ML.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "divergence_ML.csv").read_text().splitlines()
        assert lines[0] == "strides,mean_log_divergence"
        assert lines[-1].startswith("10,")


class TestRunConfig:
    def test_defaults_and_describe(self):
        cfg = RunConfig()
        assert cfg.mode == "AC"
        assert math.isinf(cfg.ground_stiffness)
        spec = RunConfig(n_strides=2).to_trial_spec()
        assert generate_trial(spec).meta["ground_stiffness"] == "rigid"

    def test_rigid_string_accepted(self):
        cfg = RunConfig.from_dict({"ground_stiffness": "rigid"})
        assert math.isinf(cfg.ground_stiffness)
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"ground_stiffness": "soft"})

    def test_unknown_keys_rejected(self):
        for raw in ({"mode": "TC", "typo_key": 1}, {"belt_speed": 0.65}):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(raw)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="XX").to_trial_spec()
        with pytest.raises(ConfigError):
            RunConfig(mode="AC", K_d=0.0).to_trial_spec()
        with pytest.raises(ConfigError):
            RunConfig(n_strides=1).to_trial_spec()

    def test_to_trial_spec_carries_condition(self):
        cfg = RunConfig(mode="AC", K_d=20.0, ground_stiffness=63.0,
                        n_strides=30, seed=5,
                        perturbations=[{"kind": "load-impulse",
                                        "at_stride": 10, "magnitude": 5.0}])
        spec = cfg.to_trial_spec()
        assert spec.mode == "AC"
        assert spec.K_d == 20.0
        assert spec.ground_stiffness == 63.0
        assert spec.seed == 5
        assert len(spec.perturbations) == 1
        spec = replace(spec, perturbations=spec.perturbations
                       + (Perturbation("stiffness-step", 20, 25.0),))
        assert [p.at_stride for p in spec.perturbations] == [10, 20]

    def test_bad_perturbation_rejected(self):
        for pert in ({"bogus": 1},
                     {"kind": "bogus", "at_stride": 1, "magnitude": 1.0},
                     {"kind": "load-impulse", "at_stride": -1,
                      "magnitude": 5.0},
                     {"kind": "load-impulse", "at_stride": 10,
                      "magnitude": 5.0},
                     {"kind": "load-impulse", "at_stride": 500,
                      "magnitude": 5.0},
                     {"kind": "stiffness-step", "at_stride": 1,
                      "magnitude": 0.0},
                     {"kind": "stiffness-step", "at_stride": 1,
                      "magnitude": -25.0}):
            cfg = RunConfig(n_strides=10, perturbations=[pert])
            with pytest.raises(ConfigError):
                cfg.to_trial_spec()


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """One simulate -> analyze -> compare pass shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps({"mode": "TC", "n_strides": 40, "seed": 3}))
    settings = root / "analysis.json"
    settings.write_text(json.dumps(TINY_ANALYSIS))
    rec_dir = root / "rec"
    out_dir = root / "out"
    cmp_path = root / "comparison.json"
    codes = [
        main(["simulate", "--config", str(config), "--out", str(rec_dir)]),
        main(["analyze", str(rec_dir), "--config", str(settings),
              "--out", str(out_dir)]),
        main(["compare", str(out_dir / "report.json"),
              "--baseline", str(out_dir / "report.json"),
              "--out", str(cmp_path)]),
    ]
    return codes, root, rec_dir, out_dir, cmp_path


class TestCliSuccess:
    def test_pipeline_exit_codes_are_zero(self, cli_outputs):
        codes = cli_outputs[0]
        assert codes == [0, 0, 0]

    def test_outputs_exist(self, cli_outputs):
        _, _, rec_dir, out_dir, cmp_path = cli_outputs
        assert (rec_dir / "manifest.json").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "stiffness_profile.csv").exists()
        assert cmp_path.exists()

    def test_self_comparison_has_zero_deltas(self, cli_outputs):
        cmp_path = cli_outputs[4]
        cmp = load_report(str(cmp_path))
        (name, entry), = cmp["candidates"].items()
        for axis in ("ML", "AP", "VT"):
            assert entry["delta_lambda"][axis]["short"]["delta"] == 0.0

    def test_same_named_candidates_are_all_compared(self, cli_outputs,
                                                   tmp_path):
        out_dir = cli_outputs[3]
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            shutil.copy(out_dir / "report.json", tmp_path / name)
        cmp_path = tmp_path / "c.json"
        code = main(["compare", str(tmp_path / "a" / "report.json"),
                     str(tmp_path / "b" / "report.json"),
                     "--baseline", str(out_dir / "report.json"),
                     "--out", str(cmp_path)])
        assert code == 0
        assert sorted(load_report(str(cmp_path))["candidates"]) == \
            ["a/report", "b/report"]

    def test_seed_override_changes_recording(self, cli_outputs,
                                             tmp_path):
        _, root, rec_dir, _, _ = cli_outputs
        other = tmp_path / "rec_seed9"
        code = main(["simulate", "--config", str(root / "run.json"),
                     "--seed", "9", "--out", str(other)])
        assert code == 0
        a = load_recording(str(rec_dir))
        b = load_recording(str(other))
        assert not np.array_equal(a.markers["LHEEL"], b.markers["LHEEL"])
        assert b.meta["seed"] == 9


def test_cli_report_matches_library(tmp_path):
    """simulate + analyze through files gives the library's report bytes."""
    raw = {"mode": "AC", "K_d": 10.0, "n_strides": 60, "seed": 1}
    analysis = {"exclude_strides": 10, "window_strides": 25,
                "n_windows": 10, "points_per_window": 2500}
    (tmp_path / "run.json").write_text(json.dumps(raw))
    (tmp_path / "analysis.json").write_text(json.dumps(analysis))
    assert main(["simulate", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "rec")]) == 0
    assert main(["analyze", str(tmp_path / "rec"), "--config",
                 str(tmp_path / "analysis.json"),
                 "--out", str(tmp_path / "out")]) == 0
    rec = generate_trial(RunConfig(**raw).to_trial_spec())
    save_report(analyze_trial(rec, AnalysisSettings(**analysis)),
                str(tmp_path / "library.json"))
    assert (tmp_path / "out" / "report.json").read_bytes() == \
        (tmp_path / "library.json").read_bytes()


class TestCliErrorCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_invalid_config_is_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for raw in ({"mode": "WRONG"}, {"mode": "TC", "K_d": 0.0},
                    {"body_mass": 0.0}, {"n_strides": 10.5}, {"seed": -1},
                    {"n_strides": 10, "perturbations": [
                        {"kind": "load-impulse", "at_stride": 500,
                         "magnitude": 5.0}]},
                    {"period_jitter": 0.6, "n_strides": 100},
                    {"amplitude_jitter": -5, "n_strides": 20},
                    {"noise_mm": -1}):
            bad.write_text(json.dumps(raw))
            code = main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err.startswith("invalid config:")
            assert not (tmp_path / "o").exists()

    def test_failed_simulation_is_reported(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        # a valid spec whose trial cannot be run: at seed 0 the amplitude
        # jitter asks the AC law for an unreachable moment; at seed 13 a
        # stride three sd short lasts less than one tick
        for raw in ({"amplitude_jitter": 1.0, "n_strides": 10, "seed": 0},
                    {"period_jitter": 0.3333, "n_strides": 10, "seed": 13}):
            config.write_text(json.dumps(raw))
            code = main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err.startswith("simulation failed:")
            assert not (tmp_path / "o").exists()

    def test_malformed_json_config_is_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_recording_is_io_error(self, tmp_path):
        code = main(["analyze", str(tmp_path / "norec"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_damaged_recording_is_io_error(self, tmp_path, small_tc_trial,
                                           capsys):
        good = tmp_path / "good"
        save_recording(small_tc_trial, str(good))

        def rewrite(rec, **changes):
            path = rec / RECORDING_NAME
            with np.load(path) as npz:
                arrays = {k: npz[k] for k in npz.files}
            arrays.update(changes)
            np.savez(path, **{k: v for k, v in arrays.items()
                              if v is not None})

        def drop_arrays(rec):
            (rec / RECORDING_NAME).unlink()

        def truncate_arrays(rec):
            path = rec / RECORDING_NAME
            raw = path.read_bytes()
            path.write_bytes(raw[:len(raw) // 2])

        def drop_events_right(rec):
            rewrite(rec, events_right=None)

        def manifest_not_object(rec):
            path = rec / MANIFEST_NAME
            path.write_text(json.dumps([json.loads(path.read_text())]))

        def object_array(rec):
            rewrite(rec, cop_left=np.array([{"ML": 0.0}], dtype=object))

        def float_events(rec):
            rewrite(rec, events_left=small_tc_trial.events_left + 0.5)

        def flat_marker(rec):
            rewrite(rec, marker_LHEEL=small_tc_trial.markers["LHEEL"][:, 2])

        for damage in (drop_arrays, truncate_arrays, drop_events_right,
                       manifest_not_object, object_array, float_events,
                       flat_marker):
            rec = tmp_path / damage.__name__
            shutil.copytree(good, rec)
            damage(rec)
            out = tmp_path / f"out_{damage.__name__}"
            code = main(["analyze", str(rec), "--out", str(out)])
            assert code == 2, damage.__name__
            err = capsys.readouterr().err
            assert err.startswith("error:"), damage.__name__
            assert not out.exists()
            if damage is drop_arrays:
                # a recording in the old CSV layout fails the same way
                assert RECORDING_NAME in err

    def test_bad_analysis_settings_is_invalid(self, tmp_path,
                                              small_tc_trial, capsys):
        rec = tmp_path / "rec"
        save_recording(small_tc_trial, str(rec))
        bad = tmp_path / "settings.json"
        # windows the recording can fill, so only the bad entry can fail
        bad_overrides = [dict(TINY_ANALYSIS, embedding_overrides=o) for o in (
            {"ML": [10]}, {"ML": ["10", "4"]}, {"ML": [True, 4]},
            {"ML": [0, 4]}, ["ML"], {"XX": [10, 4]})]
        out_of_range = [dict(TINY_ANALYSIS, **r) for r in (
            {"window_strides": 0}, {"n_windows": 0}, {"n_windows": -2},
            {"points_per_window": -2500}, {"exclude_strides": -5})]
        for raw in [{"no_such_setting": 1}, {"n_windows": "5"},
                    {"max_lag": 20}] + bad_overrides + out_of_range:
            bad.write_text(json.dumps(raw))
            code = main(["analyze", str(rec), "--config", str(bad),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err.startswith("invalid config:")
            assert not (tmp_path / "o").exists()

    def test_too_few_strides_for_the_windows_is_refused(self, tmp_path,
                                                        capsys):
        (tmp_path / "run.json").write_text(
            json.dumps({"mode": "TC", "n_strides": 60, "seed": 0}))
        # 30 windows of 25 strides need 54 of the 48 analyzed strides
        (tmp_path / "analysis.json").write_text(json.dumps(
            {"exclude_strides": 10, "window_strides": 25, "n_windows": 30,
             "points_per_window": 2500}))
        assert main(["simulate", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "rec")]) == 0
        capsys.readouterr()
        code = main(["analyze", str(tmp_path / "rec"), "--config",
                     str(tmp_path / "analysis.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        # both counts can be checked against the run's 60 strides: the
        # strike at sample 0 is never detected
        assert capsys.readouterr().err.startswith(
            "analysis failed: need 54 strides, have 48 (59 foot strikes "
            "detected give 58 strides; exclude_strides skips the first 10)")
        assert not (tmp_path / "o").exists()

    def test_recording_without_body_mass_is_refused(self, tmp_path,
                                                    small_tc_trial, capsys):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(TINY_ANALYSIS))
        # None deletes the key
        for key, value in (("body_mass", None), ("stride_period", None),
                           ("body_mass", "59"), ("stride_period", "1.47"),
                           ("stride_period", 0.0)):
            rec = tmp_path / f"rec_{key}_{value}"
            save_recording(small_tc_trial, str(rec))
            manifest = rec / MANIFEST_NAME
            raw = json.loads(manifest.read_text())
            if value is None:
                del raw["meta"][key]
            else:
                raw["meta"][key] = value
            manifest.write_text(json.dumps(raw))
            code = main(["analyze", str(rec), "--config", str(settings),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("analysis failed:") and key in err
            assert not (tmp_path / "o").exists()

    def test_schema_mismatch_is_invalid(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"meta": {}}))
        code = main(["compare", str(junk), "--baseline", str(junk),
                     "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_candidate_given_twice_is_invalid(self, tmp_path, cli_outputs):
        report = str(cli_outputs[3] / "report.json")
        code = main(["compare", report, report, "--baseline", report,
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert not (tmp_path / "c.json").exists()

    def test_missing_baseline_is_io_error(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"meta": {}}))
        code = main(["compare", str(junk),
                     "--baseline", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "c.json")])
        assert code == 2


@pytest.mark.parametrize("module", ["softgait.plant", "softgait.cli"])
def test_simulate_path_leaves_the_analysis_stack_unloaded(module):
    # only the analysis needs scipy.signal and scipy.spatial, so a
    # `softgait simulate` process must not import them
    src = os.path.dirname(os.path.dirname(softgait.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (f"import sys, {module}; print(sorted(m for m in "
            "('scipy.signal', 'scipy.spatial') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
