import ast
import gc
import hashlib
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import softgait
from softgait.analysis import AnalysisSettings, analyze_trial
from softgait.cli import main
from softgait.config import ConfigError, RunConfig
from softgait.io import (MANIFEST_NAME, RECORDING_NAME, RecordingIOError,
                         _round_sig, load_recording, load_report,
                         save_recording, save_report, write_plot_csvs)
from softgait.plant import generate_trial
from softgait.stability.lyapunov import HORIZON_STRIDES

TINY_ANALYSIS = {
    "exclude_strides": 5, "window_strides": 20, "n_windows": 5,
    "points_per_window": 2000,
    "embedding_overrides": {axis: {"tau": 10, "dim": 4}
                            for axis in ("ML", "AP", "VT")},
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

    @pytest.mark.parametrize("key, value", [
        ("n_samples", 5), ("n_samples", None), ("n_samples", "1472"),
        ("rate", 0), ("rate", -100.0), ("rate", True), ("rate", "100"),
        ("rate", None), ("rate", float("inf")), ("rate", float("nan"))])
    def test_manifest_must_match_the_arrays(self, small_tc_trial, tmp_path,
                                            key, value):
        save_recording(small_tc_trial, str(tmp_path))
        manifest = tmp_path / MANIFEST_NAME
        raw = json.loads(manifest.read_text())
        # None deletes the key
        if value is None:
            del raw[key]
        else:
            raw[key] = value
        manifest.write_text(json.dumps(raw))
        with pytest.raises(RecordingIOError, match=key):
            load_recording(str(tmp_path))

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
        assert (tmp_path / "r1.json").read_bytes() == \
            (tmp_path / "r2.json").read_bytes()
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
            "profiles": {"q": [0.0, 1.0], "M": [0.0, 15.0],
                         "qdot": [1.0, 0.0]},
            "divergence": {"ML": [0.0, 0.5, 1.0]},
        }
        write_plot_csvs(report, str(tmp_path), HORIZON_STRIDES)
        for name in ("stiffness_profile.csv", "moment_angle.csv",
                     "phase_portrait.csv", "divergence_ML.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "divergence_ML.csv").read_text().splitlines()
        assert lines[0] == "strides,mean_log_divergence"
        assert lines[-1].startswith("10,")
        # both profile plots take the angle from the one "q" list
        assert (tmp_path / "moment_angle.csv").read_text().splitlines() == \
            ["angle_deg,moment_Nm", "0,0", "1,15"]
        assert (tmp_path / "phase_portrait.csv").read_text().splitlines() \
            == ["angle_deg,angular_velocity_deg_s", "0,1", "1,0"]


class TestRunConfig:
    def test_defaults_and_describe(self):
        cfg = RunConfig()
        assert cfg.mode == "AC"
        assert math.isinf(cfg.ground_stiffness)
        spec = RunConfig(n_strides=2)
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
            RunConfig(mode="XX")
        with pytest.raises(ConfigError):
            RunConfig(mode="AC", K_d=0.0)
        with pytest.raises(ConfigError, match="K_d"):
            RunConfig(mode="AC", K_d=2.5)
        with pytest.raises(ConfigError):
            RunConfig(n_strides=1)

    def test_readme_table_is_the_config(self):
        """README's run.json table lists RunConfig's fields, in order, with
        their defaults; "rigid" stands for an infinite ground stiffness."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("| key | unit | default | valid |\n")[1]
        rows = []
        for line in table.splitlines()[1:]:
            if not line.startswith("|"):
                break
            key, _, default = (cell.strip(" `") for cell in
                               line.split("|")[1:4])
            default = json.loads(default)
            rows.append((key, math.inf if default == "rigid" else default))
        want = [(f.name, f.default) for f in fields(RunConfig)]
        assert rows == want
        assert [type(v) for _, v in rows] == [type(v) for _, v in want]

    def test_to_trial_spec_carries_condition(self):
        cfg = RunConfig(mode="AC", K_d=20.0, ground_stiffness=63.0,
                        n_strides=30, seed=5)
        spec = cfg.to_trial_spec()
        assert spec is cfg
        assert spec.mode == "AC"
        assert spec.K_d == 20.0
        assert spec.ground_stiffness == 63.0
        assert spec.seed == 5


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


# the trial CI simulates twice and analyses with the demo's windows
DETERMINISM_RUN = {"mode": "AC", "K_d": 10.0, "n_strides": 60, "seed": 1}
DETERMINISM_REPORT_SHA256 = (
    "6132b13db5a443fcbebdb1c8d0df61d80fa7a7bef2858f02f6ab75a7dbfb5292")


@pytest.fixture(scope="module")
def determinism_report(tmp_path_factory):
    """(analysis settings, save_report bytes) of the library's analysis of
    the determinism trial."""
    demo = Path(__file__).parent.parent / "demos" / "cli_workflow.py"
    analysis = runpy.run_path(str(demo))["ANALYSIS"]
    rec = generate_trial(RunConfig(**DETERMINISM_RUN))
    path = tmp_path_factory.mktemp("determinism") / "report.json"
    save_report(analyze_trial(rec, AnalysisSettings(**analysis)), str(path))
    return analysis, path.read_bytes()


def test_cli_report_matches_library(tmp_path, determinism_report):
    """simulate + analyze through files gives the library's report bytes."""
    analysis, library_bytes = determinism_report
    (tmp_path / "run.json").write_text(json.dumps(DETERMINISM_RUN))
    (tmp_path / "analysis.json").write_text(json.dumps(analysis))
    assert main(["simulate", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "rec")]) == 0
    assert main(["analyze", str(tmp_path / "rec"), "--config",
                 str(tmp_path / "analysis.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == library_bytes


def test_report_embedding_block_is_an_override(tmp_path, determinism_report):
    """A report's `embedding` block, pasted into analysis.json as
    `embedding_overrides`, reproduces that report byte for byte."""
    analysis, library_bytes = determinism_report
    assert "embedding_overrides" not in analysis
    block = json.loads(library_bytes)["embedding"]
    save_recording(generate_trial(RunConfig(**DETERMINISM_RUN)),
                   str(tmp_path / "rec"))
    (tmp_path / "analysis.json").write_text(
        json.dumps(dict(analysis, embedding_overrides=block)))
    assert main(["analyze", str(tmp_path / "rec"), "--config",
                 str(tmp_path / "analysis.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == library_bytes


def test_report_bytes_are_pinned(determinism_report):
    """Reports round floats to nine significant digits, so last-ulp
    differences between platforms do not reach these bytes."""
    digest = hashlib.sha256(determinism_report[1]).hexdigest()
    assert digest == DETERMINISM_REPORT_SHA256, (
        "the determinism trial's report.json changed; if the change is "
        "intended, update DETERMINISM_REPORT_SHA256 and state the report's "
        f"before and after values in CHANGES.md (sha256 now {digest})")


class TestCliErrorCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_ac_moment_loop_gain_below_minus_0_9_is_invalid(self, tmp_path,
                                                            capsys):
        # the loop gain 1 - SIGMA*RHO/K_d is -0.92 at K_d 2.6, where the
        # first strides chatter, and -0.89 at 2.65
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mode": "AC", "K_d": 2.6,
                                      "n_strides": 5}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("invalid config: K_d")
        assert not (tmp_path / "o").exists()
        config.write_text(json.dumps({"mode": "AC", "K_d": 2.65,
                                      "n_strides": 5}))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 0
        assert load_recording(str(tmp_path / "o")).meta["K_d"] == 2.65

    def test_invalid_config_is_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for raw in ({"mode": "WRONG"}, {"mode": "TC", "K_d": 0.0},
                    {"mode": "AC", "K_d": 2.5},
                    {"body_mass": 0.0}, {"n_strides": 10.5}, {"seed": -1},
                    {"period_jitter": 0.6, "n_strides": 100},
                    {"amplitude_jitter": -5, "n_strides": 20},
                    # squaring the tibia velocity would overflow a float
                    {"amplitude_jitter": 1e200, "n_strides": 5},
                    {"noise_mm": -1},
                    # a bool is not a number, and every float but the
                    # ground stiffness is finite
                    {"n_strides": 6, "seed": True, "body_mass": True},
                    {"mode": "TC", "ground_stiffness": True},
                    {"stride_period": math.inf}):
            bad.write_text(json.dumps(raw))
            code = main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err.startswith("invalid config:")
            assert not (tmp_path / "o").exists()
        # a run.json that lists perturbations, which the simulator does
        # not have, is refused rather than run without them
        bad.write_text(json.dumps({"n_strides": 10, "perturbations": []}))
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and "perturbations" in err
        assert not (tmp_path / "o").exists()

    def test_seed_override_is_checked_in_place_of_the_configs(self, tmp_path,
                                                              capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mode": "TC", "n_strides": 6,
                                      "seed": -1}))
        assert main(["simulate", "--config", str(config), "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 0
        assert load_recording(str(tmp_path / "o")).meta["seed"] == 3
        config.write_text(json.dumps({"mode": "TC", "n_strides": 6}))
        assert main(["simulate", "--config", str(config), "--seed", "-1",
                     "--out", str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err == ("invalid config: seed must be an "
                                           "integer of at least 0, got -1\n")
        assert not (tmp_path / "p").exists()

    def test_failed_simulation_is_reported(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        # valid specs whose trials cannot be run: at seed 13 a stride three
        # sd short lasts less than one tick, and strides of 1e-300 s give
        # a trial of no samples
        for raw in ({"period_jitter": 0.3333, "n_strides": 10, "seed": 13},
                    {"stride_period": 1e-300}):
            config.write_text(json.dumps(raw))
            code = main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err.startswith("simulation failed:")
            assert not (tmp_path / "o").exists()

    def test_unreachable_gait_reference_saturates(self, tmp_path):
        # the amplitude jitter takes the estimated stride length past what
        # the motor can unload at push-off; the gait reference saturates at
        # the motor's range end, as the motor command does
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mode": "TC", "n_strides": 200,
                                      "amplitude_jitter": 0.33, "seed": 0}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        rec = load_recording(str(tmp_path / "o"))
        assert rec.prosthesis["x_cmd"].min() == -40.0

    def test_malformed_json_config_is_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # malformed JSON, and bytes that are not UTF-8
        for raw in (b"{oops", b"\xff\xfe{}"):
            bad.write_bytes(raw)
            code = main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err.startswith("invalid config:")
            assert not (tmp_path / "o").exists()

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

        def meta_not_object(rec):
            path = rec / MANIFEST_NAME
            raw = json.loads(path.read_text())
            path.write_text(json.dumps(dict(raw, meta=["x"])))

        def object_array(rec):
            rewrite(rec, cop_left=np.array([{"ML": 0.0}], dtype=object))

        def float_events(rec):
            rewrite(rec, events_left=small_tc_trial.events_left + 0.5)

        def flat_marker(rec):
            rewrite(rec, marker_LHEEL=small_tc_trial.markers["LHEEL"][:, 2])

        def wrong_n_samples(rec):
            path = rec / MANIFEST_NAME
            raw = json.loads(path.read_text())
            path.write_text(json.dumps(dict(raw, n_samples=5)))

        def bool_rate(rec):
            path = rec / MANIFEST_NAME
            raw = json.loads(path.read_text())
            path.write_text(json.dumps(dict(raw, rate=True)))

        def short_cop_right(rec):
            rewrite(rec, cop_right=small_tc_trial.cop_right[:-500])

        for damage in (drop_arrays, truncate_arrays, drop_events_right,
                       manifest_not_object, meta_not_object, object_array,
                       float_events, flat_marker, wrong_n_samples, bool_rate,
                       short_cop_right):
            rec = tmp_path / damage.__name__
            shutil.copytree(good, rec)
            damage(rec)
            out = tmp_path / f"out_{damage.__name__}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["analyze", str(rec), "--out", str(out)])
                gc.collect()   # a leaked file handle warns when collected
            assert code == 2, damage.__name__
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)], \
                damage.__name__
            err = capsys.readouterr().err
            assert err.startswith("error:"), damage.__name__
            assert not out.exists()
            if damage is drop_arrays:
                # a recording in the old CSV layout fails the same way
                assert RECORDING_NAME in err

    @pytest.mark.parametrize("name", ("LHEEL", "LASI"))
    def test_missing_marker_is_invalid(self, tmp_path, small_tc_trial,
                                       capsys, name):
        rec = tmp_path / "rec"
        save_recording(small_tc_trial, str(rec))
        with np.load(rec / RECORDING_NAME) as npz:
            arrays = {k: npz[k] for k in npz.files if k != f"marker_{name}"}
        np.savez(rec / RECORDING_NAME, **arrays)
        # windows the recording can fill, so only the marker can fail
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(TINY_ANALYSIS))
        code = main(["analyze", str(rec), "--config", str(settings),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"analysis failed: marker {name} missing\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("column", (0, 2), ids=("cop", "force"))
    def test_non_finite_force_channel_is_invalid(self, tmp_path,
                                                 small_tc_trial, capsys,
                                                 column):
        # NaN on every 40th right stance frame would split the stances
        rec = tmp_path / "rec"
        save_recording(small_tc_trial, str(rec))
        cop_right = small_tc_trial.cop_right.copy()
        stance = np.flatnonzero(cop_right[:, 2] > 100.0)
        cop_right[stance[::40], column] = np.nan
        with np.load(rec / RECORDING_NAME) as npz:
            arrays = dict(npz, cop_right=cop_right)
        np.savez(rec / RECORDING_NAME, **arrays)
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(TINY_ANALYSIS))
        code = main(["analyze", str(rec), "--config", str(settings),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == \
            "analysis failed: cop_right has non-finite frames\n"
        assert not (tmp_path / "o").exists()

    def test_bad_analysis_settings_is_invalid(self, tmp_path,
                                              small_tc_trial, capsys):
        rec = tmp_path / "rec"
        save_recording(small_tc_trial, str(rec))
        bad = tmp_path / "settings.json"
        # windows the recording can fill, so only the bad entry can fail
        bad_overrides = [dict(TINY_ANALYSIS, embedding_overrides=o) for o in (
            {"ML": {"tau": 10}}, {"ML": {"tau": "10", "dim": 4}},
            {"ML": {"tau": True, "dim": 4}}, {"ML": {"tau": 0, "dim": 4}},
            {"ML": {"tau": 10, "dim": 4, "theiler": 3}}, ["ML"],
            {"XX": {"tau": 10, "dim": 4}})]
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
        # the (tau, dim) pair is not the report's shape, and the message
        # says which shape is
        bad.write_text(json.dumps(dict(TINY_ANALYSIS,
                                       embedding_overrides={"ML": [10, 4]})))
        code = main(["analyze", str(rec), "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config:")
        assert '{"tau": int, "dim": int}' in err
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
        for key, value in (("body_mass", None), ("body_mass", "59"),
                           ("body_mass", 0.0)):
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

    def test_recording_without_stride_period_is_analysed(
            self, tmp_path, small_tc_trial):
        # strides come from the force channels, so `body_mass` is the only
        # meta that the analysis reads
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(TINY_ANALYSIS))
        rec = tmp_path / "rec"
        save_recording(small_tc_trial, str(rec))
        manifest = rec / MANIFEST_NAME
        raw = json.loads(manifest.read_text())
        raw["meta"] = {"body_mass": raw["meta"]["body_mass"]}
        manifest.write_text(json.dumps(raw))
        assert main(["analyze", str(rec), "--config", str(settings),
                     "--out", str(tmp_path / "o")]) == 0
        report = load_report(str(tmp_path / "o" / "report.json"))
        want = analyze_trial(small_tc_trial, AnalysisSettings(**TINY_ANALYSIS))
        assert report["mos"] == _round_sig(want["mos"])
        assert report["lyapunov"] == _round_sig(want["lyapunov"])

    def test_schema_mismatch_is_invalid(self, tmp_path, cli_outputs,
                                        capsys):
        raw = (cli_outputs[3] / "report.json").read_text()
        good = json.loads(raw)
        no_meta = {k: v for k, v in good.items() if k != "meta"}
        text_cycles = json.loads(raw)
        text_cycles["mos"]["left"]["AP"]["per_cycle"] = ["x"]
        text_mean = json.loads(raw)
        text_mean["mos"]["right"]["ML"]["mean"] = "1.0"
        # json reads NaN and Infinity, which no rank-sum test or exponent
        # change can use
        nan_cycle = json.loads(raw)
        nan_cycle["mos"]["left"]["ML"]["per_cycle"][0] = math.nan
        inf_cycle = json.loads(raw)
        inf_cycle["mos"]["right"]["AP"]["per_cycle"][-1] = math.inf
        inf_mean = json.loads(raw)
        inf_mean["mos"]["left"]["AP"]["mean"] = -math.inf
        nan_lyapunov = json.loads(raw)
        nan_lyapunov["lyapunov"]["VT"]["long"]["mean"] = math.nan
        for name, report in (("meta_only", {"meta": {}}),
                             ("list_root", [good]), ("no_meta", no_meta),
                             ("text_cycles", text_cycles),
                             ("text_mean", text_mean),
                             ("nan_cycle", nan_cycle),
                             ("inf_cycle", inf_cycle),
                             ("inf_mean", inf_mean),
                             ("nan_lyapunov", nan_lyapunov)):
            junk = tmp_path / f"{name}.json"
            junk.write_text(json.dumps(report))
            out = tmp_path / f"c_{name}.json"
            code = main(["compare", str(junk), "--baseline", str(junk),
                         "--out", str(out)])
            assert code == 1, name
            assert capsys.readouterr().err.startswith("invalid report:"), name
            assert not out.exists(), name

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


def _loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded after `code`."""
    src = os.path.dirname(os.path.dirname(softgait.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += (f"; print(json.dumps(sorted(m for m in {modules!r} "
             "if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", "import json, sys; " + code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["softgait.plant", "softgait.cli"])
def test_simulate_path_leaves_the_analysis_stack_unloaded(module):
    # the simulator runs on numpy alone, so a `softgait simulate` process
    # loads no scipy module: not the analysis' scipy.spatial, nor
    # scipy.signal, which nothing needs
    assert _loaded(f"import {module}",
                   ("scipy", "scipy.signal", "scipy.spatial")) == []


def test_compare_leaves_scipy_the_analysis_and_the_simulator_unloaded(
        cli_outputs, tmp_path):
    # a comparison reads two reports and runs numpy statistics on them:
    # a `softgait compare` process loads only cli, io and stability.stats
    report, out = str(cli_outputs[3] / "report.json"), str(tmp_path / "c")
    stack = ("scipy", "softgait.analysis", "softgait.signals",
             "softgait.stability.balance", "softgait.stability.embedding",
             "softgait.stability.lyapunov", "softgait.plant",
             "softgait.controllers", "softgait.lut")
    assert _loaded("from softgait.cli import main; assert main(['compare', "
                   f"{report!r}, '--baseline', {report!r}, '--out', "
                   f"{out!r}]) == 0", stack) == []
    assert load_report(out)["candidates"]


def test_analysis_leaves_the_simulator_and_scipy_signal_and_stats_unloaded():
    # the analysis shares only the recording with the simulator; the
    # filter, the strike peaks and the rank-sum test are numpy and LAPACK
    stack = ("softgait.plant", "softgait.controllers", "softgait.lut",
             "scipy.signal", "scipy.stats")
    assert _loaded("import softgait.analysis", stack) == []
    # both paths of the test: exact, and normal with ties
    assert _loaded("from softgait.stability.stats import wilcoxon_ranksum; "
                   "wilcoxon_ranksum([1.0, 2.0], [3.0, 4.0]); "
                   "wilcoxon_ranksum([1.0, 2.0], [2.0, 4.0])", stack) == []


def test_only_the_cli_prints_and_nothing_warns():
    """The library reports through return values, exceptions and
    `logging`: `print` is the CLI's alone, and no module imports
    `warnings`."""
    package = Path(softgait.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        name = str(path.relative_to(package))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "warnings" for m in modules):
                found.append(f"{name}:{node.lineno} imports warnings")
            if (isinstance(node, ast.Call) and name != "cli.py"
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                found.append(f"{name}:{node.lineno} calls print")
    assert found == []
