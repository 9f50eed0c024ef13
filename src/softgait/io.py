"""Disk formats: trial recordings (CSV channel files plus a JSON
manifest), analysis reports, and flat CSVs for plotting."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .plant import PROSTHESIS_KEYS, TrialRecording
from .stability import AXES
from .stability.lyapunov import HORIZON_STRIDES

MANIFEST_NAME = "manifest.json"


class RecordingIOError(OSError):
    pass


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.9g", delimiter=",",
               header=",".join(header), comments="")


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def save_recording(rec: TrialRecording, out_dir: str) -> str:
    """Write one trial to `out_dir`; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    t = np.arange(len(rec.prosthesis["t"])) / rec.rate

    header = ["time"]
    cols = [t]
    for name in sorted(rec.markers):
        for j, axis in enumerate(AXES):
            header.append(f"{name}_{axis}")
            cols.append(rec.markers[name][:, j])
    _write_csv(os.path.join(out_dir, "markers.csv"), header, cols)

    header = ["time"]
    cols = [t]
    for side, cop in (("left", rec.cop_left), ("right", rec.cop_right)):
        for j, field in enumerate(("ML", "AP", "force")):
            header.append(f"{side}_{field}")
            cols.append(cop[:, j])
    _write_csv(os.path.join(out_dir, "cop.csv"), header, cols)

    _write_csv(os.path.join(out_dir, "prosthesis.csv"),
               list(PROSTHESIS_KEYS),
               [rec.prosthesis[k] for k in PROSTHESIS_KEYS])

    with open(os.path.join(out_dir, "events.csv"), "w") as fh:
        fh.write("side,index\n")
        for idx in rec.events_left:
            fh.write(f"left,{int(idx)}\n")
        for idx in rec.events_right:
            fh.write(f"right,{int(idx)}\n")

    manifest = {
        "rate": rec.rate,
        "n_samples": int(len(t)),
        "files": {"markers": "markers.csv", "cop": "cop.csv",
                  "prosthesis": "prosthesis.csv", "events": "events.csv"},
        "meta": rec.meta,
    }
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
    try:
        return _read_trial(os.path.dirname(path), manifest)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RecordingIOError(f"cannot read recording {path}: {exc}") \
            from exc


def _read_trial(base: str, manifest: dict) -> TrialRecording:
    files = manifest["files"]
    header, data = _read_csv(os.path.join(base, files["markers"]))
    names = sorted({h.rsplit("_", 1)[0] for h in header[1:]})
    markers = {}
    for name in names:
        idx = [header.index(f"{name}_{axis}") for axis in AXES]
        markers[name] = data[:, idx]

    header, data = _read_csv(os.path.join(base, files["cop"]))
    cop = {}
    for side in ("left", "right"):
        idx = [header.index(f"{side}_{f}") for f in ("ML", "AP", "force")]
        cop[side] = data[:, idx]

    header, data = _read_csv(os.path.join(base, files["prosthesis"]))
    prosthesis = {k: data[:, header.index(k)] for k in PROSTHESIS_KEYS}

    events = {"left": [], "right": []}
    with open(os.path.join(base, files["events"])) as fh:
        fh.readline()
        for line in fh:
            side, idx = line.strip().split(",")
            events[side].append(int(idx))

    return TrialRecording(
        markers=markers, cop_left=cop["left"], cop_right=cop["right"],
        prosthesis=prosthesis,
        events_left=np.array(events["left"], dtype=int),
        events_right=np.array(events["right"], dtype=int),
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
