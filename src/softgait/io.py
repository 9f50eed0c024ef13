"""Disk formats: trial recordings (one .npz of the raw arrays plus a JSON
manifest), analysis reports, and flat CSVs for plotting.  The recording
is all that the simulator and the analysis share, so this module imports
neither and holds the facts of the format that both read."""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

MANIFEST_NAME = "manifest.json"
RECORDING_NAME = "recording.npz"
AXES = ("ML", "AP", "VT")    # marker column order, and a report's axis keys
PELVIS_MARKERS = ("LASI", "RASI", "LPSI", "RPSI")   # their mean is the CoM
HEEL_MARKER = "LHEEL"        # prosthetic side's heel; its strikes cut strides
GRAVITY = 9.81               # m/s^2; force channels are in N, body mass in kg
# per-tick channels of the closed-loop log, in recording column order
PROSTHESIS_KEYS = ("x", "q", "M", "omega", "gait_percent", "L_s", "q_d",
                   "x_cmd")


@dataclass
class TrialRecording:
    """Synchronized channels of one simulated walking trial at 100 Hz."""

    markers: dict[str, np.ndarray]        # name -> (N, 3) mm, axes (ML, AP, VT)
    cop_left: np.ndarray                  # (N, 3): ML mm, AP mm, force N
    cop_right: np.ndarray
    prosthesis: dict[str, np.ndarray]     # per-tick controller/plant log
    events_left: np.ndarray               # ground-truth foot-strike indices,
    events_right: np.ndarray              # for tests; `analyze` reads neither
    rate: float                           # Hz
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.cop_left)
        if len(self.cop_right) != n:
            raise ValueError("cop_right length mismatch")
        for name, arr in self.markers.items():
            if len(arr) != n:
                raise ValueError(f"marker {name} length mismatch")
        for name, arr in self.prosthesis.items():
            if len(arr) != n:
                raise ValueError(f"prosthesis channel {name} length mismatch")
        if np.any(np.diff(self.events_left) <= 0) \
                or np.any(np.diff(self.events_right) <= 0):
            raise ValueError("events must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return len(self.cop_left)


class RecordingIOError(OSError):
    pass


def is_int(value) -> bool:
    """An integer as JSON gives it; a bool is not a number."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite number as JSON gives it; a bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("meta", {}), dict)):
        raise RecordingIOError(
            f"manifest {path} and its meta must be JSON objects")
    rate = manifest.get("rate")
    if not (is_finite(rate) and rate > 0):
        raise RecordingIOError(
            f"manifest {path} needs a positive finite rate, got {rate!r}")
    arrays_path = os.path.join(os.path.dirname(path), RECORDING_NAME)
    # np.load leaves a file it opened itself open when the zip is damaged,
    # so the handle is ours to close
    try:
        with open(arrays_path, "rb") as fh, \
                np.load(fh, allow_pickle=False) as npz:
            rec = _read_trial(npz, manifest)
    except (OSError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile) as exc:
        raise RecordingIOError(
            f"cannot read recording {arrays_path}: {exc}") from exc
    if manifest.get("n_samples") != rec.n_samples:
        raise RecordingIOError(
            f"manifest {path} gives n_samples {manifest.get('n_samples')!r}"
            f" for {rec.n_samples} samples in {arrays_path}")
    return rec


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


def write_plot_csvs(report: dict, out_dir: str,
                    horizon_strides: float) -> None:
    """Flat CSVs ready for plotting tools; each divergence curve spans
    `horizon_strides` strides."""
    os.makedirs(out_dir, exist_ok=True)
    qs = report["quasi_stiffness"]
    _write_csv(os.path.join(out_dir, "stiffness_profile.csv"),
               ["stance_percent", "stiffness_Nm_per_deg"],
               [np.asarray(qs["stance_percent"], dtype=float),
                np.array([np.nan if v is None else v
                          for v in qs["stiffness"]])])
    profiles = report["profiles"]
    angle = np.asarray(profiles["q"])
    _write_csv(os.path.join(out_dir, "moment_angle.csv"),
               ["angle_deg", "moment_Nm"], [angle, np.asarray(profiles["M"])])
    _write_csv(os.path.join(out_dir, "phase_portrait.csv"),
               ["angle_deg", "angular_velocity_deg_s"],
               [angle, np.asarray(profiles["qdot"])])
    for axis, curve in report["divergence"].items():
        curve = np.asarray(curve, dtype=float)
        strides = (np.arange(len(curve)) / (len(curve) - 1) * horizon_strides
                   if len(curve) > 1 else np.zeros(1))
        _write_csv(os.path.join(out_dir, f"divergence_{axis}.csv"),
                   ["strides", "mean_log_divergence"], [strides, curve])
