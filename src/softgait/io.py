"""Disk formats: trial recordings (one .npz of the raw arrays plus a JSON
manifest), analysis reports, and flat CSVs for plotting."""

from __future__ import annotations

import json
import math
import os
import zipfile

import numpy as np

from .plant import PROSTHESIS_KEYS, TrialRecording

MANIFEST_NAME = "manifest.json"
RECORDING_NAME = "recording.npz"


class RecordingIOError(OSError):
    pass


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.9g", delimiter=",",
               header=",".join(header), comments="")


def save_recording(rec: TrialRecording, out_dir: str) -> str:
    """Write one trial to `out_dir`; returns the manifest path.

    The arrays go to RECORDING_NAME exactly as the recording holds them:
    `marker_<name>` per marker, `cop_left`, `cop_right`,
    `prosthesis_<key>` per PROSTHESIS_KEYS channel, `events_left` and
    `events_right`.
    """
    os.makedirs(out_dir, exist_ok=True)
    arrays = {f"marker_{name}": rec.markers[name]
              for name in sorted(rec.markers)}
    arrays.update(cop_left=rec.cop_left, cop_right=rec.cop_right)
    arrays.update({f"prosthesis_{k}": rec.prosthesis[k]
                   for k in PROSTHESIS_KEYS})
    arrays.update(events_left=rec.events_left, events_right=rec.events_right)
    np.savez(os.path.join(out_dir, RECORDING_NAME), **arrays)

    manifest = {"rate": rec.rate, "n_samples": rec.n_samples,
                "meta": rec.meta}
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_recording(path: str) -> TrialRecording:
    """Load a trial from a manifest path or a directory containing one."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecordingIOError(f"cannot read manifest {path}: {exc}") from exc
    arrays_path = os.path.join(os.path.dirname(path), RECORDING_NAME)
    try:
        with np.load(arrays_path, allow_pickle=False) as npz:
            return _read_trial(npz, manifest)
    except (OSError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile) as exc:
        raise RecordingIOError(
            f"cannot read recording {arrays_path}: {exc}") from exc


def _array(npz, key: str, kind: str, columns: int | None = None):
    """One stored array, refused unless it is 1-D, or 2-D with `columns`
    columns, and of the given dtype kind ("f" float, "i" integer)."""
    arr = npz[key]
    shape = (len(arr),) if columns is None else (len(arr), columns)
    if arr.dtype.kind != kind or arr.shape != shape:
        raise ValueError(f"array {key} is {arr.dtype} {arr.shape}")
    return arr


def _read_trial(npz, manifest: dict) -> TrialRecording:
    markers = {key[len("marker_"):]: _array(npz, key, "f", 3)
               for key in npz.files if key.startswith("marker_")}
    return TrialRecording(
        markers=markers,
        cop_left=_array(npz, "cop_left", "f", 3),
        cop_right=_array(npz, "cop_right", "f", 3),
        prosthesis={k: _array(npz, f"prosthesis_{k}", "f")
                    for k in PROSTHESIS_KEYS},
        events_left=_array(npz, "events_left", "i"),
        events_right=_array(npz, "events_right", "i"),
        rate=float(manifest["rate"]),
        meta=manifest.get("meta", {}))


def _round_sig(obj, digits: int = 9):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float("%.*g" % (digits, obj))
    if isinstance(obj, dict):
        return {k: _round_sig(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(v, digits) for v in obj]
    return obj


def save_report(report: dict, path: str) -> None:
    """Serialize a report with floats at nine significant digits so that
    identical analyses produce byte-identical files."""
    with open(path, "w") as fh:
        json.dump(_round_sig(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecordingIOError(f"cannot read report {path}: {exc}") from exc


def write_plot_csvs(report: dict, out_dir: str) -> None:
    """Flat CSVs ready for plotting tools."""
    from .stability.lyapunov import HORIZON_STRIDES

    os.makedirs(out_dir, exist_ok=True)
    qs = report["quasi_stiffness"]
    _write_csv(os.path.join(out_dir, "stiffness_profile.csv"),
               ["stance_percent", "stiffness_Nm_per_deg"],
               [np.asarray(qs["stance_percent"], dtype=float),
                np.array([np.nan if v is None else v
                          for v in qs["stiffness"]])])
    ma = report["profiles"]["moment_angle"]
    _write_csv(os.path.join(out_dir, "moment_angle.csv"),
               ["angle_deg", "moment_Nm"],
               [np.asarray(ma["q"]), np.asarray(ma["M"])])
    pp = report["profiles"]["phase_portrait"]
    _write_csv(os.path.join(out_dir, "phase_portrait.csv"),
               ["angle_deg", "angular_velocity_deg_s"],
               [np.asarray(pp["q"]), np.asarray(pp["qdot"])])
    for axis, curve in report["divergence"].items():
        curve = np.asarray(curve, dtype=float)
        strides = (np.arange(len(curve)) / (len(curve) - 1) * HORIZON_STRIDES
                   if len(curve) > 1 else np.zeros(1))
        _write_csv(os.path.join(out_dir, f"divergence_{axis}.csv"),
                   ["strides", "mean_log_divergence"], [strides, curve])
