"""The perf gate: compare two BENCH_perf.json documents case by case.

``repro-perf diff BASELINE CURRENT`` joins rows on their ``case``
label, divides the current median ``wall_s`` by the baseline's, and
fails (exit 1) when any case got slower by more than the threshold.
Wall time from two hosts compares the hosts as much as the code, so
both files should come from one machine, run one after the other: CI
runs the ladder on the merge base and on the head, alternating rung by
rung on one runner (``.github/perf_pair.sh``).  The threshold is
deliberately generous; the gate exists to catch real kernel slowdowns,
not 5% wobble.  Cases present on only one side are reported but never
fail the gate (the ladder grows over time, and a new rung has no
baseline yet).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

#: Default allowed fractional growth of median wall time (0.25 == 25%
#: slower).
DEFAULT_THRESHOLD = 0.25


def load_results(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The rows of the results document at ``path``.

    Reads only the shape :func:`~.ladder.write_results` writes: an
    object whose ``cases`` list holds the rows.  Raises ValueError on
    anything else.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("cases"), list):
        raise ValueError(
            f"{path}: not a repro-perf results document "
            "(expected an object with a 'cases' list)"
        )
    return doc["cases"]


def compare_results(
    baseline: List[Dict[str, Any]],
    current: List[Dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, Any]:
    """Join rows by case; flag median ``wall_s`` growth past ``threshold``.

    Takes the row lists :func:`load_results` returns.  Returns a
    JSON-ready comparison: one entry per case with baseline/current
    ``wall_s``, their ratio (current over baseline), and a status among
    ``ok`` / ``regressed`` / ``improved`` / ``baseline-only`` /
    ``current-only``.  ``passed`` is False iff any case regressed.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1): {threshold}")
    base = {r["case"]: r for r in baseline}
    cur = {r["case"]: r for r in current}
    cases: List[Dict[str, Any]] = []
    regressed: List[str] = []
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            cases.append({"case": name, "status": "baseline-only"})
            continue
        if name not in base:
            cases.append(
                {
                    "case": name,
                    "status": "current-only",
                    "current_wall_s": cur[name]["wall_s"],
                }
            )
            continue
        b = float(base[name]["wall_s"])
        c = float(cur[name]["wall_s"])
        ratio = c / b if b > 0 else 0.0
        # A zero baseline (an empty rung) cannot be compared against.
        if b > 0 and ratio > 1.0 + threshold:
            status = "regressed"
            regressed.append(name)
        elif b > 0 and ratio < 1.0 - threshold:
            status = "improved"
        else:
            status = "ok"
        cases.append(
            {
                "case": name,
                "status": status,
                "baseline_wall_s": b,
                "current_wall_s": c,
                "ratio": round(ratio, 4),
            }
        )
    return {
        "threshold": threshold,
        "passed": not regressed,
        "regressed": regressed,
        "cases": cases,
    }


def render_comparison(comparison: Dict[str, Any]) -> str:
    """The comparison as an aligned text table plus a verdict line."""
    lines = [
        f"{'case':>22} {'baseline s':>11} {'current s':>11} "
        f"{'ratio':>7}  status"
    ]
    for entry in comparison["cases"]:
        b = entry.get("baseline_wall_s")
        c = entry.get("current_wall_s")
        ratio = entry.get("ratio")
        lines.append(
            f"{entry['case']:>22} "
            f"{(f'{b:.4f}' if b is not None else '-'):>11} "
            f"{(f'{c:.4f}' if c is not None else '-'):>11} "
            f"{(f'{ratio:.3f}' if ratio is not None else '-'):>7}  "
            f"{entry['status']}"
        )
    pct = comparison["threshold"] * 100
    if comparison["passed"]:
        lines.append(f"PASS: no case got more than {pct:.0f}% slower")
    else:
        names = ", ".join(comparison["regressed"])
        lines.append(f"FAIL: more than {pct:.0f}% slower: {names}")
    return "\n".join(lines)
