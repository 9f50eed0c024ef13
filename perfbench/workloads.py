"""The two benchmark workloads, each a closed loop with one client.

Every workload makes its inputs from the seed, calls softgait through its
public API or its CLI entry point, times the simulate and analyse steps as
the user calls them, and checks its outputs.  softgait is reached through
module attributes at call time, so functions the tracer rebinds are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import math
import os
import shutil
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from softgait import analysis, cli, config, plant
from softgait.stability import AXES

# paper_trial has one pass per run, so the simulate step is also timed this
# many times before and after it, outside total_s, and the median is
# reported: one 4-5 s simulation is too short to average out the host's
# slow phases, and timings on both sides of the pass span more of them
PAPER_EXTRA_SIMS = (3, 3)

KD_ERROR_LIMIT_PCT = 10.0        # criterion 1 of the paper

# cli_roundtrip: a TC baseline and two AC candidates, demo-sized windows
CLI_TRIALS = (("tc", {"mode": "TC", "n_strides": 60}),
              ("ac10", {"mode": "AC", "K_d": 10.0, "n_strides": 60}),
              ("ac20", {"mode": "AC", "K_d": 20.0, "n_strides": 60}))
CLI_ANALYSIS = {"exclude_strides": 10, "window_strides": 25,
                "n_windows": 10, "points_per_window": 2500}


class Checks:
    """Output checks of one run; each failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Iteration:
    """Timings and outputs of one pass through a workload's pipeline."""

    total_s: float = 0.0
    # one rate per simulate or analyse step: the host's speed changes from
    # one 4-s step to the next, so the median is taken over steps
    sim_rates: list[float] = field(default_factory=list)   # ticks/s
    analysis_rates: list[float] = field(default_factory=list)  # windows/s
    kd_errors: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    reports: dict[str, str] = field(default_factory=dict)  # name -> sha256

    @property
    def kd_error_pct(self) -> float:
        return max(self.kd_errors)


def _spans(tracer):
    """Span factory for the benchmark's own steps; no-op when untraced."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def _kd_error_pct(terminal: float, K_d: float) -> float:
    return abs(terminal - K_d) / K_d * 100.0


def _check_kd_error(checks: Checks, what: str, terminal: float,
                    K_d: float) -> None:
    """The paper's criterion 1: the emulated stiffness is within 10 %."""
    err = _kd_error_pct(terminal, K_d)
    checks.check(err <= KD_ERROR_LIMIT_PCT,
                 f"{what}: terminal {terminal:.3f} off K_d={K_d:g} by "
                 f"{err:.2f} % (limit {KD_ERROR_LIMIT_PCT:g} %)")


# --------------------------------------------------------------- paper_trial

def _digest(rec) -> str:
    h = hashlib.sha256()
    for key in sorted(rec.prosthesis):
        h.update(key.encode())
        h.update(np.ascontiguousarray(rec.prosthesis[key]).tobytes())
    return h.hexdigest()


def _time_sims(spec, n: int) -> list[tuple[float, str]]:
    """(wall time, recording digest) of n untraced simulations of spec."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        rec = plant.generate_trial(spec)
        out.append((time.perf_counter() - t0, _digest(rec)))
    return out


def setup_paper_trial(workdir: str) -> None:
    """The default run needs no files: RunConfig() and AnalysisSettings()."""


def run_paper_trial(seed: int, workdir: str, checks: Checks, tracer=None,
                    iteration: int = 0) -> Iteration:
    span = _spans(tracer)
    it = Iteration()
    spec = config.RunConfig(seed=seed).to_trial_spec()
    sim_times = [] if tracer is not None \
        else _time_sims(spec, PAPER_EXTRA_SIMS[0])
    t0 = time.perf_counter()
    with span("bench.simulate"):
        rec = plant.generate_trial(spec)
    t1 = time.perf_counter()
    with span("bench.analyse"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = analysis.analyze_trial(rec, analysis.AnalysisSettings())
    t2 = time.perf_counter()
    it.total_s = t2 - t0
    if tracer is None:
        sim_times += _time_sims(spec, PAPER_EXTRA_SIMS[1])
        digest = _digest(rec)
        for _, again in sim_times:
            checks.check(again == digest,
                         "generate_trial is not repeatable at a fixed seed")
    it.sim_rates = [rec.n_samples / t
                    for t in [t1 - t0] + [t for t, _ in sim_times]]
    it.analysis_rates = [report["n_windows"] * len(AXES) / (t2 - t1)]
    it.notes = {"n_windows": report["n_windows"],
                "warnings": [str(w.message) for w in caught],
                "embedding": report["embedding"]}

    for axis in AXES:
        for horizon in ("short", "long"):
            lam = report["lyapunov"][axis][horizon]["mean"]
            checks.check(math.isfinite(lam),
                         f"lambda {horizon} {axis} not finite: {lam}")
    for side in ("left", "right"):
        for direction in ("ML", "AP"):
            mos = report["mos"][side][direction]["mean"]
            checks.check(math.isfinite(mos),
                         f"MOS {side} {direction} not finite: {mos}")
    n_windows = report["n_windows"]
    checks.check(isinstance(n_windows, int) and n_windows >= 1,
                 f"n_windows not recorded: {n_windows!r}")
    # a reduced window count must be announced, never silent
    checks.check(n_windows == analysis.AnalysisSettings().n_windows
                 or len(caught) > 0,
                 f"{n_windows} windows without a warning")
    terminal = report["quasi_stiffness"]["terminal"]
    checks.check(math.isfinite(terminal),
                 f"terminal quasi-stiffness not finite: {terminal}")
    it.kd_errors.append(_kd_error_pct(terminal, rec.meta["K_d"]))
    _check_kd_error(checks, "paper_trial", terminal, rec.meta["K_d"])
    return it


# ------------------------------------------------------------- cli_roundtrip

def setup_cli_roundtrip(workdir: str) -> None:
    for name, cfg in CLI_TRIALS:
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(cfg, fh, indent=2)
    with open(os.path.join(workdir, "analysis.json"), "w") as fh:
        json.dump(CLI_ANALYSIS, fh, indent=2)


def _softgait(argv: list[str], checks: Checks) -> None:
    """One CLI invocation; its messages are kept off the benchmark's stdout."""
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    checks.check(code == 0, f"softgait {' '.join(argv)} exited {code}")


def run_cli_roundtrip(seed: int, workdir: str, checks: Checks, tracer=None,
                      iteration: int = 0) -> Iteration:
    span = _spans(tracer)
    it = Iteration()
    base = os.path.join(workdir, f"iter{iteration}")
    rec_dir = {name: os.path.join(base, f"rec_{name}") for name, _ in CLI_TRIALS}
    out_dir = {name: os.path.join(base, f"out_{name}") for name, _ in CLI_TRIALS}
    comparison = os.path.join(base, "comparison.json")

    # each trial is simulated then analysed, as in demos/cli_workflow.py
    sim_s, analyse_s = [], []
    t_start = time.perf_counter()
    for j, (name, _) in enumerate(CLI_TRIALS):
        t0 = time.perf_counter()
        with span("bench.simulate"):
            _softgait(["simulate", "--config",
                       os.path.join(workdir, f"{name}.json"),
                       "--seed", str(seed + j), "--out", rec_dir[name]],
                      checks)
        t1 = time.perf_counter()
        with span("bench.analyse"):
            _softgait(["analyze", rec_dir[name], "--config",
                       os.path.join(workdir, "analysis.json"),
                       "--out", out_dir[name]], checks)
        sim_s.append(t1 - t0)
        analyse_s.append(time.perf_counter() - t1)
    with span("bench.compare"):
        # both candidates are called report.json, as `analyze` names them
        _softgait(["compare",
                   os.path.join(out_dir["ac10"], "report.json"),
                   os.path.join(out_dir["ac20"], "report.json"),
                   "--baseline", os.path.join(out_dir["tc"], "report.json"),
                   "--out", comparison], checks)
    it.total_s = time.perf_counter() - t_start

    terminals = []                 # AC trials, in rising K_d
    for (name, cfg), t_sim, t_analyse in zip(CLI_TRIALS, sim_s, analyse_s):
        with open(os.path.join(rec_dir[name], "manifest.json")) as fh:
            it.sim_rates.append(json.load(fh)["n_samples"] / t_sim)
        path = os.path.join(out_dir[name], "report.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        it.reports[name] = hashlib.sha256(raw).hexdigest()
        report = json.loads(raw)
        it.analysis_rates.append(report["n_windows"] * len(AXES) / t_analyse)
        if cfg["mode"] == "AC":
            terminal = report["quasi_stiffness"]["terminal"]
            it.kd_errors.append(_kd_error_pct(terminal, cfg["K_d"]))
            _check_kd_error(checks, name, terminal, cfg["K_d"])
            terminals.append(terminal)
    checks.check(terminals[0] < terminals[1],
                 f"AC terminals not ordered by K_d: {terminals}")
    with open(comparison) as fh:
        kept = len(json.load(fh)["candidates"])
    # the known loss of candidates that share a basename is reported,
    # never counted as a pass or hidden
    it.notes = {"cli.compare.candidates_dropped": 2 - kept}
    shutil.rmtree(base)
    return it


WORKLOADS = {
    "paper_trial": (setup_paper_trial, run_paper_trial),
    "cli_roundtrip": (setup_cli_roundtrip, run_cli_roundtrip),
}
