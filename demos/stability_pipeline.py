#!/usr/bin/env python3
"""Dynamic-stability analysis demo.

Simulates one walking trial, then runs the full analysis: foot-strike
detection, delay-embedding parameter estimation (mutual-information delay,
false nearest neighbors), windowed divergence exponents on the CoM
velocities, and extrapolated-CoM margins of stability.

The default settings here are scaled down (shorter trial, smaller
windows) so the demo finishes in seconds; pass --full for the
150-stride/15000-point windowing convention on the default trial length,
which takes a few seconds more.

Usage: python3 demos/stability_pipeline.py [--mode AC|TC] [--seed N] [--full]
"""

import argparse

from softgait.analysis import AnalysisSettings, analyze_trial
from softgait.config import RunConfig
from softgait.plant import generate_trial


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("AC", "TC"), default="TC")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="use the full 150-stride windowing convention")
    args = parser.parse_args()

    if args.full:
        scale = {}
        settings = AnalysisSettings()
    else:
        scale = {"n_strides": 60}
        settings = AnalysisSettings(exclude_strides=10, window_strides=25,
                                    n_windows=10, points_per_window=2500)
    run = RunConfig(mode=args.mode, K_d=15.0, seed=args.seed, **scale)

    print(f"simulating {run.n_strides} strides in {args.mode} mode ...")
    rec = generate_trial(run)

    print("analyzing ...")
    report = analyze_trial(rec, settings)

    print(f"\nanalyzed strides: {report['n_analyzed_strides']}, "
          f"windows: {report['n_windows']}")
    print(f"pendulum length {report['pendulum_length_m']:.3f} m, "
          f"omega0 {report['pendulum_eigenfrequency']:.3f} 1/s\n")

    print(f"{'axis':>4} {'tau':>4} {'dim':>4} "
          f"{'lambda_S':>10} {'lambda_L':>10}")
    for axis in ("ML", "AP", "VT"):
        emb = report["embedding"][axis]
        lam = report["lyapunov"][axis]
        print(f"{axis:>4} {emb['tau']:>4} {emb['dim']:>4} "
              f"{lam['short']['mean']:>10.4f} {lam['long']['mean']:>10.4f}")

    print("\nmargins of stability (mm):")
    for side in ("left", "right"):
        for direction in ("ML", "AP"):
            entry = report["mos"][side][direction]
            print(f"  {side:>5} {direction}: "
                  f"{entry['mean']:7.2f} +- {entry['sd']:.2f}")

    print(f"\nquasi-stiffness at 60% stance: "
          f"{report['quasi_stiffness']['terminal']:.2f} Nm/deg")


if __name__ == "__main__":
    main()
