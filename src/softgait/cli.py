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
from contextlib import contextmanager

from .io import (RecordingIOError, load_recording, load_report,
                 save_recording, save_report, write_plot_csvs)

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


class _Failure(Exception):
    """A command's end: the message `main` prints and the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _fails(code: int, prefix: str, *errors: type[Exception]):
    """Re-raise any of `errors` as a _Failure with `prefix: error`."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}: {exc}") from exc


def cmd_simulate(args) -> str:
    from .config import ConfigError, RunConfig
    from .plant import SimulationDivergedError, generate_trial

    with _fails(EXIT_IO, "error", OSError), \
            _fails(EXIT_INVALID, "invalid config", ConfigError):
        # the seed is put in before the config is checked, so a config
        # whose own seed is invalid runs under --seed
        overrides = {} if args.seed is None else {"seed": args.seed}
        spec = RunConfig.from_file(args.config, **overrides)
    # the spec is valid, so a ValueError is this trial failing: two foot
    # strikes in one tick, or fewer than two samples
    with _fails(EXIT_INVALID, "simulation failed",
                SimulationDivergedError, ValueError):
        rec = generate_trial(spec)
    with _fails(EXIT_IO, f"error writing {args.out}", OSError):
        return save_recording(rec, args.out)


def cmd_analyze(args) -> str:
    # scipy loads only here: the analysis stack needs scipy.linalg and
    # scipy.spatial, while `simulate` and `compare` run on numpy alone
    from .analysis import AnalysisSettings, analyze_trial
    from .stability.lyapunov import HORIZON_STRIDES

    settings = AnalysisSettings()
    if args.config is not None:
        with _fails(EXIT_IO, "error", OSError), \
                _fails(EXIT_INVALID, "invalid config", TypeError, ValueError):
            with open(args.config) as fh:
                settings = AnalysisSettings(**json.load(fh))
    with _fails(EXIT_IO, "error", RecordingIOError):
        rec = load_recording(args.recording)
    with _fails(EXIT_INVALID, "analysis failed", ValueError):
        report = analyze_trial(rec, settings)
    with _fails(EXIT_IO, f"error writing {args.out}", OSError):
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.json")
        save_report(report, report_path)
        write_plot_csvs(report, args.out, HORIZON_STRIDES)
    return report_path


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


def cmd_compare(args) -> str:
    from .stability.stats import SchemaMismatchError, compare_reports

    names = _candidate_names(args.candidates)
    if names is None:
        raise _Failure(EXIT_INVALID, "invalid arguments: a candidate report "
                       "is given twice (paths equal up to the extension)")
    with _fails(EXIT_IO, "error", RecordingIOError):
        baseline = load_report(args.baseline)
        candidates = {name: load_report(p)
                      for name, p in zip(names, args.candidates)}
    with _fails(EXIT_INVALID, "invalid report", SchemaMismatchError):
        result = compare_reports(baseline, candidates)
    with _fails(EXIT_IO, f"error writing {args.out}", OSError):
        save_report(result, args.out)
    return args.out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"simulate": cmd_simulate, "analyze": cmd_analyze,
               "compare": cmd_compare}[args.command]
    try:
        path = handler(args)
    except _Failure as failure:
        print(failure, file=sys.stderr)
        return failure.code
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
