"""``repro-audit`` — whole-program dataflow audit CLI.

Usage::

    repro-audit src --baseline .repro-audit-baseline.json
    repro-audit src/repro --format json
    repro-audit list-rules
    repro-audit src --baseline b.json --update-baseline

Exit status mirrors ``repro-lint``: 0 when no **new** findings
(relative to the baseline, or to an empty baseline when none is given);
1 when new findings exist; 2 on usage errors and on a configured hot
root that no longer resolves in the audited tree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..baseline import Baseline
from ..reporters import render_json, render_rules, render_text
from . import AUDIT_RULES, audit_paths
from .allocations import UnresolvedRootError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description=(
            "Whole-program dataflow audit: units checking, hot-path "
            "allocation gating and RNG provenance (rules "
            "RPR020-RPR023)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to audit (directories are walked "
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
        print(render_rules(AUDIT_RULES))
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
        findings = audit_paths(args.paths)
    except UnresolvedRootError as exc:
        print(f"repro-audit: error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        Baseline.from_findings(findings).save(args.baseline)
        print(
            f"repro-audit: wrote {len(findings)} entries to "
            f"{args.baseline}"
        )
        return 0

    baseline = Baseline.load_or_empty(args.baseline)
    diff = baseline.split(findings)

    if args.format == "json":
        print(render_json(diff))
    else:
        print(render_text(diff, show_known=args.show_known, tool="repro-audit"))
    return 0 if diff.ok else 1


if __name__ == "__main__":
    sys.exit(main())
