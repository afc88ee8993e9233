"""The ``repro-perf`` console script: run / diff / list.

``run`` times the standard workload ladder, unprofiled, over a fixed
number of trials per rung and writes ``BENCH_perf.json``.  ``diff``
compares two results files and exits nonzero when a rung's median
``wall_s`` grew past the threshold — the CI perf gate, which diffs the
merge base's ladder against the head's on one runner.

Examples::

    repro-perf run --quick -o BENCH_perf.json
    repro-perf run --quick --case barrier-256 -o /tmp/barrier.json
    repro-perf diff /tmp/base.json /tmp/head.json --threshold 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ReproError
from .diff import DEFAULT_THRESHOLD, compare_results, load_results, render_comparison
from .ladder import LADDER, TRIALS, ladder_cases, run_ladder, write_results


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        names = args.case if args.case else None
        ladder_cases(names)  # validate before simulating anything
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    rows = run_ladder(
        names=names,
        quick=args.quick,
        progress=None if args.quiet else (
            lambda line: print(line, file=sys.stderr)
        ),
    )
    write_results(rows, out)
    print(
        f"{'case':>22} {'events':>10} {'wall_s':>8} {'min':>8} "
        f"{'max':>8} {'events/sec':>12}"
    )
    for row in rows:
        print(
            f"{row['case']:>22} {row['events']:>10} "
            f"{row['wall_s']:>8.3f} {row['wall_s_min']:>8.3f} "
            f"{row['wall_s_max']:>8.3f} {row['events_per_sec']:>12}"
        )
    print(f"wrote {out}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        baseline = load_results(args.baseline)
        current = load_results(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comparison = compare_results(baseline, current, threshold=args.threshold)
    if args.json:
        print(json.dumps(comparison, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison["passed"] else 1


def cmd_list(args: argparse.Namespace) -> int:
    for case in LADDER:
        print(
            f"{case.name:>22}  {case.app:<9} {case.network:<5} "
            f"{case.nodes:>4} nodes  {case.topology.describe()}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="The simulator's speedometer: time the perf ladder "
        "and gate wall-time regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help=f"time the workload ladder ({TRIALS} trials per rung)"
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced repetitions/sizes (the CI configuration)",
    )
    run.add_argument(
        "-o",
        "--out",
        default="BENCH_perf.json",
        help="unified results file (default: BENCH_perf.json)",
    )
    run.add_argument(
        "--case",
        action="append",
        metavar="NAME",
        help="run only this ladder case (repeatable; see `repro-perf list`)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress"
    )
    run.set_defaults(func=cmd_run)

    diff = sub.add_parser(
        "diff",
        help="compare two results files; exit 1 when a rung's median "
        "wall_s grew past the threshold",
    )
    diff.add_argument("baseline", help="baseline BENCH_perf.json")
    diff.add_argument("current", help="current BENCH_perf.json")
    diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional growth of median wall_s "
        f"(default {DEFAULT_THRESHOLD}; generous to absorb runner noise)",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )
    diff.set_defaults(func=cmd_diff)

    lst = sub.add_parser("list", help="list the ladder cases")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
