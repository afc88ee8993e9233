"""``repro-lint`` — determinism analyzer for the repro simulator tree.

Every invocation runs the per-file rules (RPR001-RPR012) and the
whole-program dataflow passes (RPR020-RPR023) over the given paths.

Usage::

    repro-lint src benchmarks examples --baseline .repro-lint-baseline.json
    repro-lint src/repro --format json
    repro-lint list-rules
    repro-lint src --baseline b.json --update-baseline

Exit status: 0 when no **new** findings (relative to the baseline, or
to an empty baseline when none is given); 1 when new findings exist;
2 on usage errors and on a configured kernel hot root that no longer
resolves in the analyzed tree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline
from .flow import audit_paths
from .flow.allocations import UnresolvedRootError
from .linter import lint_paths
from .reporters import render_json, render_rules, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analyzer enforcing the simulator's determinism "
            "contract: per-file rules RPR001-RPR012 and whole-program "
            "passes RPR020-RPR023."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (directories are walked "
        "for *.py), or the literal 'list-rules'",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="committed baseline JSON; only findings absent from it "
        "fail the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to exactly the current findings and "
        "exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--show-known",
        action="store_true",
        help="also list baselined findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules or [str(p) for p in args.paths] == ["list-rules"]:
        print(render_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (or use list-rules)")
    if args.update_baseline and args.baseline is None:
        parser.error("--update-baseline requires --baseline FILE")

    missing = [p for p in args.paths if not p.exists()]
    if missing:
        parser.error(
            "no such path: " + ", ".join(str(p) for p in missing)
        )

    try:
        findings = sorted(
            lint_paths(args.paths) + audit_paths(args.paths),
            key=lambda f: (f.path, f.line, f.col, f.rule),
        )
    except UnresolvedRootError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        Baseline.from_findings(findings).save(args.baseline)
        print(
            f"repro-lint: wrote {len(findings)} entries to "
            f"{args.baseline}"
        )
        return 0

    baseline = Baseline.load_or_empty(args.baseline)
    diff = baseline.split(findings)

    if args.format == "json":
        print(render_json(diff))
    else:
        print(render_text(diff, show_known=args.show_known))
    return 0 if diff.ok else 1


if __name__ == "__main__":
    sys.exit(main())
