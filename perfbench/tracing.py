"""Span tracing of softgait's public functions, from outside the package.

`Tracer.install()` rebinds each traced function in every loaded softgait
module namespace that refers to it (for example `softgait.plant.step_controller`
and `softgait.analysis.windowed_lyapunov`), so calls made inside the package
are captured without editing its source.  Methods are rebound on their
class.  Spans (name, start, end, parent) are appended to flat arrays in
memory and written out once, after the traced pass.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, qualified name) of each traced function.  A span is named
# "<module without the softgait. prefix>.<qualname>".
TARGETS = (
    ("softgait.plant", "generate_trial"),
    ("softgait.plant", "step_plant"),
    ("softgait.controllers", "step_controller"),
    ("softgait.controllers", "tibia_phase_update"),
    ("softgait.lut", "Lut2D.invert"),
    ("softgait.signals", "butterworth_lowpass"),
    ("softgait.signals", "time_normalize"),
    ("softgait.stability.embedding", "ami_delay"),
    ("softgait.stability.embedding", "fnn_dimension"),
    ("softgait.stability.embedding", "delay_embed"),
    ("softgait.stability.lyapunov", "windowed_lyapunov"),
    ("softgait.stability.lyapunov", "rosenstein_divergence"),
    ("softgait.stability.balance", "estimate_com"),
    ("softgait.stability.balance", "com_velocity"),
    ("softgait.stability.balance", "detect_foot_strikes"),
    ("softgait.stability.balance", "pendulum_length"),
    ("softgait.stability.balance", "pendulum_eigenfrequency"),
    ("softgait.stability.balance", "xcom"),
    ("softgait.stability.balance", "stance_frames"),
    ("softgait.stability.balance", "mos_ml"),
    ("softgait.stability.balance", "mos_ap"),
    ("softgait.stability.stats", "wilcoxon_ranksum"),
    ("softgait.stability.stats", "delta_lambda"),
    ("softgait.stiffness", "segment_cycles"),
    ("softgait.stiffness", "average_cycle"),
    ("softgait.stiffness", "quasi_stiffness"),
    ("softgait.analysis", "analyze_trial"),
    ("softgait.analysis", "compare_reports"),
    ("softgait.io", "save_recording"),
    ("softgait.io", "load_recording"),
    ("softgait.io", "save_report"),
    ("softgait.io", "write_plot_csvs"),
    ("softgait.config", "RunConfig.from_file"),
    ("softgait.cli", "main"),
)


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        path = os.path.dirname(path)
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _n_samples(result, args, kwargs) -> int:
    return result.n_samples


def _n_pairs(result, args, kwargs) -> int:
    return result.n_pairs


def _saved_bytes(result, args, kwargs) -> int:
    return _dir_bytes(result)          # save_recording returns the manifest


def _loaded_bytes(result, args, kwargs) -> int:
    return _dir_bytes(args[0])


# exact counts taken from a traced call: span name -> (count name, fn)
COUNTERS = {
    "plant.generate_trial": ("sim.ticks", _n_samples),
    "stability.lyapunov.rosenstein_divergence": ("lyapunov.pair_rows",
                                                 _n_pairs),
    "io.save_recording": ("io.save_recording.bytes", _saved_bytes),
    "io.load_recording": ("io.load_recording.bytes", _loaded_bytes),
}


def _cli_label(args, kwargs) -> str:
    argv = args[0] if args else kwargs["argv"]
    return argv[0]


# spans whose name gets a suffix computed from the call's arguments
LABELS = {"cli.main": _cli_label}


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []   # targets no longer in the package
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        """Context manager for a span around the benchmark's own steps."""
        return _Span(self, self._id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name: str):
        tracer = self
        label = LABELS.get(name)
        counter = COUNTERS.get(name)
        fixed_id = None if label else self._id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            nid = fixed_id if label is None \
                else tracer._id(f"{name}.{label(args, kwargs)}")
            idx = tracer._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                cname, fn = counter
                tracer.counts[cname] = tracer.counts.get(cname, 0) \
                    + fn(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "softgait"
                                         or n.startswith("softgait."))]
        for module_name, qualname in TARGETS:
            name = module_name.removeprefix("softgait.") + "." + qualname
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            original = vars(owner)[attr]
            if owner_name:
                # a method: rebind on the class, keeping classmethods bound
                # to the class
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name))
                else:
                    wrapped = self._wrap(original, name)
                self._rebind(owner, attr, wrapped)
                continue
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (total duration) and self_s
        (duration minus the time covered by child spans)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i] > 0}

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
