#!/usr/bin/env python3
"""End-to-end CLI workflow demo.

Drives the `softgait` command line programmatically, the same way a shell
script would: simulate a tibia-controller baseline and an admittance
candidate, analyze the baseline, analyze the candidate at the baseline's
embedding (its report's `embedding` block passed as
`embedding_overrides`), and compare the candidate against the baseline.
Everything lands in a scratch directory, and the comparison (exponent
deltas and margin-of-stability rank-sum tests) is printed.

The two trials use different seeds: the simulated body kinematics follow
a stochastic template that the controller does not feed back into, so
same-seed trials would have identical CoM motion and the comparison would
be degenerate.  The deltas shown reflect trial-to-trial variability.

Usage: python3 demos/cli_workflow.py [--out DIR]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from softgait.cli import main as softgait
from softgait.io import load_report

ANALYSIS = {
    "exclude_strides": 10, "window_strides": 25, "n_windows": 10,
    "points_per_window": 2500,
}


def run(argv):
    print("$ softgait " + " ".join(argv))
    code = softgait(argv)
    if code != 0:
        sys.exit(f"command failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="working directory (default: temp dir)")
    args = parser.parse_args()
    root = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    root.mkdir(parents=True, exist_ok=True)

    (root / "baseline.json").write_text(json.dumps(
        {"mode": "TC", "n_strides": 60, "seed": 1}, indent=2))
    (root / "candidate.json").write_text(json.dumps(
        {"mode": "AC", "K_d": 15.0, "n_strides": 60, "seed": 2}, indent=2))
    def analyze(name, settings):
        (root / f"analysis_{name}.json").write_text(
            json.dumps(settings, indent=2))
        run(["analyze", str(root / f"rec_{name}"),
             "--config", str(root / f"analysis_{name}.json"),
             "--out", str(root / f"out_{name}")])

    for name in ("baseline", "candidate"):
        run(["simulate", "--config", str(root / f"{name}.json"),
             "--out", str(root / f"rec_{name}")])
    analyze("baseline", ANALYSIS)
    # exponents compare only at one embedding: the baseline's
    embedding = load_report(
        str(root / "out_baseline" / "report.json"))["embedding"]
    analyze("candidate", dict(ANALYSIS, embedding_overrides=embedding))

    run(["compare", str(root / "out_candidate" / "report.json"),
         "--baseline", str(root / "out_baseline" / "report.json"),
         "--out", str(root / "comparison.json")])

    cmp_report = load_report(str(root / "comparison.json"))
    (name, entry), = cmp_report["candidates"].items()
    print(f"\ncandidate '{name}' vs baseline "
          f"(alpha = {cmp_report['alpha']}):")
    for axis in ("ML", "AP", "VT"):
        d = entry["delta_lambda"][axis]
        print(f"  {axis}: delta lambda_S {d['short']['delta']:+.4f} "
              f"({'improved' if d['short']['improved'] else 'not improved'})")
    for side in ("left", "right"):
        for direction in ("ML", "AP"):
            m = entry["mos"][side][direction]
            tag = "significant" if m["significant"] else "n.s."
            print(f"  MOS {side} {direction}: {m['baseline_mean']:.1f} -> "
                  f"{m['mean']:.1f} mm  (p = {m['p_value']:.3g}, {tag})")
    print(f"\nartifacts in {root}")


if __name__ == "__main__":
    main()
