"""Command line entry points.

    softgait simulate --config run.json [--seed N] --out DIR
    softgait analyze RECORDING --out DIR
    softgait compare --baseline REPORT CANDIDATE... --out FILE

Exit codes: 0 success, 1 invalid configuration or report schema,
2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, RunConfig
from .io import (RecordingIOError, load_recording, load_report,
                 save_recording, save_report, write_plot_csvs)
from .plant import SimulationDivergedError, generate_trial

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softgait",
        description="Simulate and analyze prosthetic-ankle walking trials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trial recording")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured random seed")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("analyze", help="analyze a recorded trial")
    p.add_argument("recording", help="recording directory or manifest path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None,
                   help="optional analysis settings JSON")

    p = sub.add_parser("compare", help="compare reports against a baseline")
    p.add_argument("candidates", nargs="+", help="candidate report files")
    p.add_argument("--baseline", required=True, help="baseline report file")
    p.add_argument("--out", required=True, help="comparison report file")
    return parser


def cmd_simulate(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
        if args.seed is not None:
            config.seed = args.seed
        spec = config.to_trial_spec()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        rec = generate_trial(spec)
    except (SimulationDivergedError, ValueError) as exc:
        # the spec is valid, so a ValueError is this trial failing: two
        # foot strikes in one tick
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        manifest = save_recording(rec, args.out)
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # scipy loads only here and in cmd_compare: the analysis stack needs
    # scipy.linalg and scipy.spatial, and compare's rank-sum tests also
    # scipy.stats, while `simulate` runs on numpy alone
    from .analysis import AnalysisSettings, analyze_trial
    from .stability.lyapunov import HORIZON_STRIDES

    settings = AnalysisSettings()
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_INVALID
        try:
            settings = AnalysisSettings(**raw)
        except (TypeError, ValueError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_INVALID
    try:
        rec = load_recording(args.recording)
    except RecordingIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        report = analyze_trial(rec, settings)
    except ValueError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.json")
        save_report(report, report_path)
        write_plot_csvs(report, args.out, HORIZON_STRIDES)
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {report_path}")
    return EXIT_OK


def _candidate_names(paths: list[str]) -> list[str] | None:
    """Shortest trailing path suffix, without extension, that tells every
    candidate apart; None when two paths differ at most in extension."""
    parts = [os.path.abspath(os.path.splitext(p)[0]).split(os.sep)
             for p in paths]
    for n in range(1, max(len(p) for p in parts) + 1):
        names = ["/".join(p[-n:]) for p in parts]
        if len(set(names)) == len(names):
            return names
    return None


def cmd_compare(args) -> int:
    from .analysis import SchemaMismatchError, compare_reports

    names = _candidate_names(args.candidates)
    if names is None:
        print("invalid arguments: a candidate report is given twice "
              "(paths equal up to the extension)", file=sys.stderr)
        return EXIT_INVALID
    try:
        baseline = load_report(args.baseline)
        candidates = {name: load_report(p)
                      for name, p in zip(names, args.candidates)}
    except RecordingIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        result = compare_reports(baseline, candidates)
    except SchemaMismatchError as exc:
        print(f"invalid report: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        save_report(result, args.out)
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"simulate": cmd_simulate, "analyze": cmd_analyze,
               "compare": cmd_compare}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
