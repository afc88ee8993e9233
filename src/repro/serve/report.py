"""Blame reports straight from cached campaign records.

``repro-explain run`` builds its report from a *live* machine; the serve
daemon has only the cached record a run left behind.  When that record
was produced with lifecycle collection (``--blame`` on the batch CLI,
``"lifecycle": true`` on the serve API), it already carries the
deterministic ``blame`` table and resampled ``series`` block — enough to
render the same self-contained HTML page without re-simulating.  The
waterfall section needs raw spans, which records deliberately do not
keep, so it renders empty here; everything else matches the live report.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..telemetry.explain import build_html


def record_explainable(record: Dict[str, Any]) -> bool:
    """Whether a record carries the blame data the report needs."""
    blame = record.get("blame")
    return isinstance(blame, dict) and bool(blame.get("components"))


def record_report(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """A ``repro-explain``-shaped report dict for one cached record.

    Returns ``None`` when the record has no blame block (it was executed
    without lifecycle collection): the caller should tell the client to
    resubmit the spec with ``lifecycle: true`` and ``force: true``.
    """
    if not record_explainable(record):
        return None
    spec = record.get("spec") or {}
    blame = record["blame"]
    return {
        "label": record.get("label", record.get("key", "")),
        "version": record.get("version", ""),
        "network": spec.get("network", "?"),
        "n_nodes": spec.get("nodes", 0),
        "ppn": spec.get("ppn", 1),
        "elapsed_us": float(record.get("elapsed_us") or 0.0),
        # Records keep no raw spans; the blame table stands alone.
        "spans": 0,
        "matched_on_arrival_share": None,
        "blame": blame,
        "critical_path_segments": len(record.get("critical_path", [])),
        "critical_path": [],
        "waterfall": [],
        "series": record.get("series") or {},
        "metrics": record.get("metrics") or {},
    }


def record_html(record: Dict[str, Any]) -> Optional[str]:
    """The self-contained HTML blame page for one cached record."""
    report = record_report(record)
    if report is None:
        return None
    return build_html(report)
