#!/usr/bin/env python3
"""softgait benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports softgait from ./src and keeps
its scratch files in ./.bench_work.  BENCHMARK.json at the root declares
the workloads and the metrics with their units.

With --trace 0 the workload's pipeline repeats until S seconds have passed
(at least once) and the end-to-end metrics are medians over those passes.
With --trace 1 one untraced pass is followed by one traced pass, which
gives the per-layer metrics (see tracing.py) and the tracing overhead.
The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics; the lines before it explain the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# fresh processes timed besides the run's own set-up, half before and half
# after the measured passes, so that the median spans the whole run
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 120

# exact counts: they must repeat at a fixed seed and source tree
EXACT = ("sim.ticks", "lyapunov.pair_rows", "lut.invert_per_tick",
         "trace.spans", "cli.compare.candidates_dropped")


def limit_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on.  Must run
    before numpy is imported; child processes inherit the setting."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def setup(workload: str) -> str:
    """Import softgait and write the workload's files; returns its work dir."""
    import workloads
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    workloads.WORKLOADS[workload][0](workdir)
    return workdir


def setup_probe(workload: str) -> None:
    t0 = time.perf_counter()
    workdir = setup(workload)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir)
    print(repr(elapsed))


def measure_setup(workload: str, probes: int) -> list[float]:
    """Set-up time of fresh processes: the import is paid once per process."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def source_key() -> str:
    """Hash of the package and benchmark sources, so stored counts are only
    compared with runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "softgait"), HERE):
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_repeatable(kind: str, workload: str, seed: int, values: dict,
                     checks) -> None:
    """Compare exact values with those of earlier runs at this seed and
    source; a difference is a determinism bug and fails the run."""
    store = os.path.join(WORK, "determinism")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store,
                        f"{workload}-seed{seed}-{kind}-{source_key()}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(values, fh, indent=1, sort_keys=True)
        return
    with open(path) as fh:
        stored = json.load(fh)
    for key in sorted(set(stored) | set(values)):
        checks.check(stored.get(key) == values.get(key),
                     f"not repeatable at seed {seed}: {kind} {key} was "
                     f"{stored.get(key)}, now {values.get(key)}")


def tail_percentile(samples: list[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    import numpy as np
    for p in (99, 95, 90, 75, 50):
        value = float(np.percentile(samples, p))
        if sum(s > value for s in samples) >= 10:
            return p, value
    return None


def untraced_run(run, args, workdir, checks):
    """Passes until --seconds have elapsed; medians over the passes."""
    iters = []
    t_run = time.perf_counter()
    while not iters or time.perf_counter() - t_run < args.seconds:
        iters.append(run(args.seed, workdir, checks, iteration=len(iters)))
    samples = [it.total_s for it in iters]
    tail = tail_percentile(samples)
    print(f"total_s: median {statistics.median(samples):.4f} s"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else "")
          + f" over {len(samples)} pass(es)")
    med = statistics.median
    return iters, {
        "total_s": med(samples),
        "sim_ticks_per_s": med(r for it in iters for r in it.sim_rates),
        "analysis_windows_per_s": med(r for it in iters
                                      for r in it.analysis_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "kd_error_pct": med(it.kd_error_pct for it in iters),
    }


def traced_run(run, args, workdir, checks):
    """One untraced pass, then one traced pass for the per-layer metrics."""
    from tracing import Tracer
    untraced = run(args.seed, workdir, checks)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run(args.seed, workdir, checks, tracer=tracer, iteration=1)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tracer.write(os.path.join(WORK, "traces",
                              f"{args.workload}-seed{args.seed}.npz"))
    if tracer.missing:
        print(f"not in the package: {', '.join(tracer.missing)}")
    values = per_layer(tracer, traced, untraced, checks)
    check_repeatable("counts", args.workload, args.seed,
                     {k: v for k, v in values.items()
                      if k in EXACT or k.endswith((".calls", ".bytes"))},
                     checks)
    return [untraced, traced], values


def per_layer(tracer, traced, untraced, checks) -> dict[str, float]:
    summary = tracer.summary()
    values = {}
    for name, s in summary.items():
        for key, v in s.items():
            values[f"{name}.{key}"] = v
    values.update(tracer.counts)
    ticks = tracer.counts.get("sim.ticks")
    if ticks and "lut.Lut2D.invert" in summary:
        values["lut.invert_per_tick"] = \
            summary["lut.Lut2D.invert"]["calls"] / ticks
    for name in ("plant.step_plant", "controllers.step_controller",
                 "controllers.tibia_phase_update"):
        if name in summary:
            checks.check(summary[name]["calls"] == ticks,
                         f"{name} ran {summary[name]['calls']} times "
                         f"for {ticks} ticks")
    values.update({k: v for k, v in traced.notes.items() if k in EXACT})
    values["trace.spans"] = len(tracer.start)
    values["trace.overhead_s"] = traced.total_s - untraced.total_s
    return values


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "ckdtree_workers": f"-1 (all {nproc} CPUs of the affinity mask)"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "softgait", "__init__.py")):
        print(f"error: no softgait sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = limit_threads()
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    setup_samples = [] if args.trace \
        else measure_setup(args.workload, SETUP_PROBES // 2)
    t0 = time.perf_counter()
    workdir = setup(args.workload)
    setup_samples.append(time.perf_counter() - t0)
    import softgait
    import workloads
    if not os.path.abspath(softgait.__file__).startswith(SRC + os.sep):
        print(f"error: softgait imported from {softgait.__file__}, not {SRC}",
              file=sys.stderr)
        shutil.rmtree(workdir)
        return 2
    run = workloads.WORKLOADS[args.workload][1]
    checks = workloads.Checks()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    try:
        if args.trace:
            iters, values = traced_run(run, args, workdir, checks)
        else:
            iters, values = untraced_run(run, args, workdir, checks)
            setup_samples += measure_setup(args.workload,
                                           SETUP_PROBES - SETUP_PROBES // 2)
            values["setup_s"] = statistics.median(setup_samples)
            print(f"setup_s samples: {[round(s, 4) for s in setup_samples]}")
        if iters[0].reports:
            for it in iters[1:]:
                for name, digest in it.reports.items():
                    checks.check(digest == iters[0].reports[name],
                                 f"report.json of {name} differs between "
                                 "passes")
            check_repeatable("reports", args.workload, args.seed,
                             iters[0].reports, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = [m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]]
    absent = [n for n in declared if n not in values]
    if args.trace:
        # every declared per-layer metric is printed: a traced function
        # that this workload never calls, or that is gone from the package,
        # ran 0 times for 0 s
        values.update((n, 0) for n in absent)
    metrics = {n: values[n] for n in declared if n in values}
    for key, value in iters[0].notes.items():
        if key not in metrics:
            print(f"{key}: {value}")
    if args.trace:
        # layers that only some workloads load, such as io and cli, are
        # timed here but kept out of the manifest, where 0 s would be a
        # constant reading on the workloads that bypass them
        for name in sorted(set(values) - set(declared)):
            if name.endswith(".busy_s"):
                print(f"also measured: {name}: {values[name]} s")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}"
              if args.trace else f"absent: {', '.join(absent)}")
    failed = len(checks.failures)
    for what in checks.failures:
        print(f"FAILED CHECK: {what}")
    print(f"failed_ratio: {failed / checks.attempted} "
          f"({failed} of {checks.attempted} checks)")
    print(f"environment: {json.dumps(environment(nproc), sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": checks.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
