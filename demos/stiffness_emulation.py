#!/usr/bin/env python3
"""Quasi-stiffness emulation demo.

Runs the closed-loop prosthesis simulation under the admittance controller
at three commanded stiffness levels plus the tibia-controller baseline,
then extracts the moment-angle slope over stance for each condition.  The
admittance profiles should land on their commanded K_d by terminal stance
and stay strictly ordered; the baseline stays flat and low.

Usage: python3 demos/stiffness_emulation.py [--out DIR]
"""

import argparse
import os

import numpy as np

from softgait.config import RunConfig
from softgait.plant import generate_trial
from softgait.signals import TimeSeries
from softgait.stiffness import (average_cycle, prosthesis_cycles,
                                quasi_stiffness)


def stiffness_profile(mode, K_d, n_strides=60, seed=0):
    spec = RunConfig(mode=mode, K_d=K_d, n_strides=n_strides,
                     seed=seed).to_trial_spec()
    rec = generate_trial(spec)
    events = rec.events_left[10:]   # let the phase estimator settle
    cycles = prosthesis_cycles(TimeSeries(rec.prosthesis["q"], rec.rate),
                               TimeSeries(rec.prosthesis["M"], rec.rate),
                               events)
    return quasi_stiffness(average_cycle(cycles))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="optional directory for profile CSVs")
    args = parser.parse_args()

    conditions = [("AC", 10.0), ("AC", 15.0), ("AC", 20.0), ("TC", None)]
    profiles = {}
    print(f"{'condition':>12} {'terminal K [Nm/deg]':>20} {'target':>8}")
    for mode, K in conditions:
        label = f"{mode}-{K:g}" if K is not None else "TC"
        prof = stiffness_profile(mode, K if K is not None else 15.0)
        profiles[label] = prof
        target = f"{K:g}" if K is not None else "-"
        print(f"{label:>12} {prof.terminal_value(60.0):>20.2f} {target:>8}")

    ac = [profiles[f"AC-{K:g}"].stiffness for K in (10.0, 15.0, 20.0)]
    valid = np.all([np.isfinite(s) for s in ac], axis=0)
    ordered = np.all(ac[0][valid] < ac[1][valid]) \
        and np.all(ac[1][valid] < ac[2][valid])
    print(f"\nprofiles strictly ordered over 20-85% stance: {ordered}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for label, prof in profiles.items():
            path = os.path.join(args.out, f"stiffness_{label}.csv")
            with open(path, "w") as fh:
                fh.write("stance_percent,stiffness_Nm_per_deg\n")
                for p, k in zip(prof.stance_percent, prof.stiffness):
                    fh.write(f"{p:.3f},{k:.6f}\n")
        print(f"wrote profiles to {args.out}")


if __name__ == "__main__":
    main()
