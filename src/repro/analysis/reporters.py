"""Text and JSON reporters for ``repro-lint``."""

from __future__ import annotations

import json
from typing import Dict, List

from .baseline import BaselineDiff
from .linter import Finding
from .rules import RULES


def render_text(diff: BaselineDiff, show_known: bool = False) -> str:
    """GCC-style one-line-per-finding report plus a summary footer."""
    lines: List[str] = []
    for finding in diff.new:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}"
        )
        if finding.text:
            lines.append(f"    {finding.text}")
    if show_known and diff.known:
        lines.append("")
        lines.append(f"baselined findings ({len(diff.known)}):")
        for finding in diff.known:
            lines.append(
                f"  {finding.location()}: {finding.rule} [baseline]"
            )
    if diff.expired:
        lines.append("")
        lines.append(
            f"expired baseline entries ({len(diff.expired)}) — the "
            "flagged code is gone; re-run with --update-baseline:"
        )
        for fingerprint, entry in diff.expired.items():
            lines.append(
                f"  {fingerprint}  {entry.get('rule', '?')}  "
                f"{entry.get('path', '?')}  {entry.get('text', '')}"
            )
    lines.append("")
    lines.append(
        f"repro-lint: {len(diff.new)} new, {len(diff.known)} baselined, "
        f"{len(diff.expired)} expired"
    )
    return "\n".join(lines)


def render_json(diff: BaselineDiff) -> str:
    """Machine-readable report (stable key order)."""
    payload: Dict[str, object] = {
        "ok": diff.ok,
        "counts": {
            "new": len(diff.new),
            "known": len(diff.known),
            "expired": len(diff.expired),
        },
        "new": [f.to_dict() for f in diff.new],
        "known": [f.to_dict() for f in diff.known],
        "expired": diff.expired,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rules() -> str:
    """The rule catalogue, for ``repro-lint list-rules``."""
    return "\n".join(f"{rule_id}  {RULES[rule_id]}" for rule_id in sorted(RULES))
