"""``repro-explain``: where did the time go, and whose fault is it?

One console script for every telemetry view of a simulated run.

``run`` executes one declarative app on a fresh machine with lifecycle
spans and series sampling enabled.  Its flags become a
:class:`~repro.campaign.RunSpec`, so the run is validated, canonicalized
and labelled exactly as campaign and serve runs are.  The span graph
folds into an *explanation*: the critical path through the run, a
per-component blame table (host / pcix / nic / link / switch / waiting
/ app), a latency waterfall of mean per-phase time for every (kind,
proto, size) bucket, and the sampled occupancy series.  The result is
written as JSON and, optionally, as a self-contained HTML report
(inline CSS and SVG, no external assets) with stacked waterfall bars,
the blame table, and per-channel sparklines.  ``--chrome PATH`` also
writes the same run's Chrome ``trace_event`` timeline, with the
resource timeline and the protocol trace log switched on.

``dump`` prints a Chrome trace's events as text; ``summarize``
aggregates one (per-category counts, per-track busy time, slowest
spans, a per-phase histogram, the metrics dict).

``diff`` decides from its two files what to compare.  Two reports: the
blame tables, exiting 1 when any component's share of the critical
path drifted past ``--threshold`` (a gate against "the optimization
moved the bottleneck").  Two Chrome traces or bare metrics dicts: the
metrics, exactly, exiting 1 when any of them moved.  A report against
a trace is a usage error (exit 2).

Examples::

    repro-explain run --app pingpong --network ib --nodes 2 \\
        --arg size=4194304 -o ib-4mb.json --html ib-4mb.html \\
        --chrome ib-4mb.trace.json
    repro-explain run --app pingpong --network elan --nodes 2 \\
        --arg size=4194304 -o elan-4mb.json --chrome elan-4mb.trace.json
    repro-explain summarize ib-4mb.trace.json --top 10 --phase
    repro-explain diff ib-4mb.json elan-4mb.json --threshold 0.05
    repro-explain diff ib-4mb.trace.json elan-4mb.trace.json
"""

from __future__ import annotations

import argparse
import html as _html
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults.recovery import root_fault
from ..version import __version__
from .chrome import load_trace
from .collect import Telemetry
from .critical_path import blame, critical_path
from .lifecycle import matched_on_arrival_share

#: Fixed component palette so report colours are stable across runs.
_COMPONENT_COLORS = {
    "host": "#d9534f",
    "pcix": "#f0ad4e",
    "nic": "#5bc0de",
    "link": "#428bca",
    "switch": "#7b68ee",
    "waiting": "#999999",
    "app": "#cccccc",
}
_PHASE_FALLBACK = "#66aa88"

#: Critical-path segments included verbatim in the JSON report (the
#: trailing — latest — portion; the blame table covers the whole path).
_MAX_REPORT_SEGMENTS = 500


def waterfall(spans: Any) -> List[Dict[str, Any]]:
    """Mean per-phase time for every ``(kind, proto, size)`` bucket.

    The per-bucket phase dict is the latency *waterfall*: stacked, the
    bars show how a message of that shape spends its life.  Means are
    over all spans in the bucket; gap time (total minus the phase sum)
    is overlap-naive but a faithful "unattributed" residual.
    """
    buckets: Dict[tuple, Dict[str, Any]] = {}
    for span in spans:
        key = (span.kind, span.proto, span.size)
        b = buckets.get(key)
        if b is None:
            b = buckets[key] = {"count": 0, "total": 0.0, "phases": {}}
        b["count"] += 1
        b["total"] += span.end - span.t0
        phases = b["phases"]
        for name, t0, t1 in span.phases:
            phases[name] = phases.get(name, 0.0) + (t1 - t0)
    out: List[Dict[str, Any]] = []
    for key in sorted(buckets):
        kind, proto, size = key
        b = buckets[key]
        n = b["count"]
        out.append(
            {
                "kind": kind,
                "proto": proto,
                "size": size,
                "count": n,
                "mean_total_us": b["total"] / n,
                "phases": {
                    name: us / n for name, us in sorted(b["phases"].items())
                },
            }
        )
    return out


def build_report(machine, result, label: str = "") -> Dict[str, Any]:
    """The JSON-ready explanation of one finished run on ``machine``."""
    lifecycle = machine.sim.telemetry.lifecycle
    spans = list(lifecycle.spans)
    by_id = {s.id: s for s in spans}
    segments = critical_path(spans)
    return {
        "label": label or machine.label,
        "version": __version__,
        "network": machine.network,
        "n_nodes": machine.n_nodes,
        "ppn": machine.ppn,
        "elapsed_us": result.elapsed_us,
        "spans": len(spans),
        "dropped": lifecycle.summary(),
        "matched_on_arrival_share": matched_on_arrival_share(spans),
        "blame": blame(segments, by_id),
        "critical_path_segments": len(segments),
        "critical_path": [
            s.to_dict() for s in segments[-_MAX_REPORT_SEGMENTS:]
        ],
        "waterfall": waterfall(spans),
        "series": machine.series(),
        "metrics": machine.metrics(),
    }


# -- HTML rendering (no external assets, deterministic output) ---------------


def _esc(value: Any) -> str:
    return _html.escape(str(value))


def _color(name: str) -> str:
    from .lifecycle import component_of

    if name in _COMPONENT_COLORS:
        return _COMPONENT_COLORS[name]
    return _COMPONENT_COLORS.get(component_of(name), _PHASE_FALLBACK)


def _blame_rows(report: Dict[str, Any]) -> str:
    rows = []
    components = report["blame"]["components"]
    for name, entry in sorted(
        components.items(), key=lambda kv: -kv[1]["us"]
    ):
        pct = entry["share"] * 100.0
        rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class='num'>{entry['us']:.3f}</td>"
            f"<td class='num'>{pct:.1f}%</td>"
            f"<td><div class='bar' style='width:{pct:.1f}%;"
            f"background:{_color(name)}'></div></td></tr>"
        )
    return "".join(rows)


def _waterfall_rows(report: Dict[str, Any]) -> str:
    rows = []
    for bucket in report["waterfall"]:
        total = bucket["mean_total_us"]
        if total <= 0:
            continue
        parts = []
        explained = 0.0
        for name, us in bucket["phases"].items():
            width = 100.0 * us / total
            explained += us
            if width < 0.05:
                continue
            parts.append(
                f"<div class='seg' style='width:{width:.2f}%;"
                f"background:{_color(name)}' title='{_esc(name)}: "
                f"{us:.3f}us'></div>"
            )
        residual = total - explained
        if residual > 0 and 100.0 * residual / total >= 0.05:
            parts.append(
                f"<div class='seg' style='width:{100.0 * residual / total:.2f}%;"
                f"background:#eeeeee' title='unattributed: "
                f"{residual:.3f}us'></div>"
            )
        head = (
            f"{bucket['kind']}/{bucket['proto']} {bucket['size']}B "
            f"&times;{bucket['count']}"
        )
        rows.append(
            f"<tr><td>{head}</td><td class='num'>{total:.3f}</td>"
            f"<td><div class='stack'>{''.join(parts)}</div></td></tr>"
        )
    return "".join(rows)


def _sparkline(values: List[float], width: int = 220, height: int = 36) -> str:
    if not values:
        return ""
    vmax = max(values)
    if vmax <= 0:
        vmax = 1.0
    n = len(values)
    step = width / max(1, n - 1)
    points = " ".join(
        f"{i * step:.1f},{height - (v / vmax) * (height - 2) - 1:.1f}"
        for i, v in enumerate(values)
    )
    return (
        f"<svg width='{width}' height='{height}' class='spark'>"
        f"<polyline points='{points}' fill='none' stroke='#428bca' "
        f"stroke-width='1.2'/></svg>"
    )


def _series_rows(report: Dict[str, Any]) -> str:
    channels = report.get("series", {}).get("channels", {})
    rows = []
    for name in sorted(channels):
        values = channels[name]
        peak = max(values) if values else 0.0
        rows.append(
            f"<tr><td>{_esc(name)}</td><td class='num'>{peak:g}</td>"
            f"<td>{_sparkline(values)}</td></tr>"
        )
    return "".join(rows)


def build_html(report: Dict[str, Any]) -> str:
    """Render a report dict as one self-contained HTML page."""
    share = report.get("matched_on_arrival_share")
    share_text = f"{share:.3f}" if share is not None else "n/a"
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro-explain: {_esc(report['label'])}</title>
<style>
body {{ font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 960px; color: #222; }}
h1 {{ font-size: 1.4em; }} h2 {{ font-size: 1.1em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; width: 100%; }}
td, th {{ padding: 3px 8px; border-bottom: 1px solid #e5e5e5;
          text-align: left; vertical-align: middle; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
.bar {{ height: 11px; min-width: 1px; }}
.stack {{ display: flex; height: 14px; width: 100%; background: #fafafa; }}
.seg {{ height: 100%; }}
.meta {{ color: #666; }}
svg.spark {{ display: block; }}
</style></head><body>
<h1>repro-explain &mdash; {_esc(report['label'])}</h1>
<p class="meta">repro {_esc(report['version'])} &middot;
network {_esc(report['network'])} &middot;
{report['n_nodes']} nodes &times; {report['ppn']} ppn &middot;
elapsed {report['elapsed_us']:.2f}&micro;s &middot;
{report['spans']} spans &middot;
matched-on-arrival share {share_text}</p>
<h2>Critical-path blame</h2>
<p class="meta">total attributed: {report['blame']['total_us']:.3f}&micro;s
over {report['critical_path_segments']} segments</p>
<table><tr><th>component</th><th>&micro;s</th><th>share</th><th></th></tr>
{_blame_rows(report)}</table>
<h2>Latency waterfall (mean per message bucket)</h2>
<table><tr><th>bucket</th><th>mean &micro;s</th><th>phases</th></tr>
{_waterfall_rows(report)}</table>
<h2>Occupancy series</h2>
<table><tr><th>channel</th><th>peak</th><th></th></tr>
{_series_rows(report)}</table>
</body></html>
"""


# -- CLI ---------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    # Imported lazily so the file verbs work on bare report and trace
    # files without dragging the whole simulator stack in.
    from ..campaign.cli import _pairs
    from ..campaign.programs import build_program
    from ..campaign.runner import spec_machine
    from ..campaign.spec import RunSpec

    spec = RunSpec(
        app=args.app,
        network=args.network,
        nodes=args.nodes,
        ppn=args.ppn,
        seed=args.seed,
        app_args=tuple(_pairs(args.arg).items()),
    )
    # A Chrome trace also shows the resource timeline and the trace log.
    chrome = bool(args.chrome)
    machine = spec_machine(
        spec,
        Telemetry(
            metrics=True,
            timeline=chrome,
            lifecycle=True,
            series=True,
            trace=chrome,
        ),
        None,
    )
    result = machine.run(build_program(spec.app, spec.args))
    report = build_report(machine, result, label=args.label or spec.label())
    Path(args.output).write_text(json.dumps(report, sort_keys=True))
    written = [str(args.output)]
    if args.html:
        Path(args.html).write_text(build_html(report))
        written.append(str(args.html))
    counts = f"{report['spans']} spans"
    if chrome:
        trace = machine.write_chrome_trace(args.chrome, label=report["label"])
        written.append(str(args.chrome))
        counts += f", {len(trace['traceEvents'])} trace events"
    top = sorted(
        report["blame"]["components"].items(), key=lambda kv: -kv[1]["us"]
    )[:3]
    top_text = ", ".join(
        f"{name} {entry['share'] * 100:.1f}%" for name, entry in top
    )
    print(
        f"wrote {' + '.join(written)}: {counts}, "
        f"elapsed {report['elapsed_us']:.2f}us, blame: {top_text or 'n/a'}"
    )
    return 0


def _events(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [e for e in trace["traceEvents"] if e.get("ph") != "M"]


def _track_names(trace: Dict[str, Any]) -> Dict[int, str]:
    names = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event["tid"]] = event["args"]["name"]
    return names


def cmd_dump(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    tracks = _track_names(trace)
    shown = 0
    for event in sorted(_events(trace), key=lambda e: (e["ts"], e["tid"])):
        if args.category and event.get("cat") != args.category:
            continue
        if args.limit and shown >= args.limit:
            print("...")
            break
        shown += 1
        track = tracks.get(event["tid"], str(event["tid"]))
        if event["ph"] == "X":
            body = f"dur={event['dur']:.3f}us"
        else:
            body = event.get("args", {}).get("message", "")
        print(
            f"{event['ts']:12.3f} {event['ph']} {track:24s} "
            f"{event.get('cat', '')}: {body}"
        )
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    other = trace.get("otherData", {})
    events = _events(trace)
    tracks = _track_names(trace)
    print(f"trace: {args.file}")
    if other.get("label"):
        print(f"label: {other['label']} (repro {other.get('version', '?')})")
    by_cat: Dict[str, int] = {}
    busy: Dict[int, float] = {}
    for event in events:
        cat = event.get("cat", "")
        by_cat[cat] = by_cat.get(cat, 0) + 1
        if event["ph"] == "X":
            busy[event["tid"]] = busy.get(event["tid"], 0.0) + event["dur"]
    print(f"events: {len(events)} across {len(by_cat)} categories")
    for cat, count in sorted(by_cat.items()):
        print(f"  {cat:32s} {count}")
    if busy:
        print("busy time per track (top 10):")
        top = sorted(busy.items(), key=lambda kv: -kv[1])[:10]
        for tid, total in top:
            print(f"  {tracks.get(tid, str(tid)):32s} {total:.3f}us")
    if args.top:
        slow = sorted(
            (e for e in events if e["ph"] == "X"),
            key=lambda e: (-e["dur"], e["ts"], e["tid"]),
        )[: args.top]
        print(f"slowest {len(slow)} spans:")
        for event in slow:
            track = tracks.get(event["tid"], str(event["tid"]))
            print(
                f"  {event['dur']:12.3f}us {track:24s} "
                f"{event.get('cat', '')}: {event['name']} @ {event['ts']:.3f}"
            )
    if args.phase:
        hist: Dict[tuple, List[float]] = {}
        for event in events:
            if event["ph"] != "X":
                continue
            hist.setdefault((event.get("cat", ""), event["name"]), []).append(
                event["dur"]
            )
        print(f"phase histogram: {len(hist)} (category, name) cells")
        for (cat, name), durs in sorted(hist.items()):
            total = sum(durs)
            print(
                f"  {cat:28s} {name:20s} n={len(durs):6d} "
                f"total={total:12.3f}us mean={total / len(durs):10.3f}us "
                f"max={max(durs):10.3f}us"
            )
    dropped = other.get("dropped") or {}
    if any(dropped.values()):
        print("dropped records (cap hit):")
        for source, by_cat in sorted(dropped.items()):
            for cat, count in sorted(by_cat.items()):
                print(f"  {source}.{cat}: {count}")
    metrics = other.get("metrics") or {}
    if metrics:
        print(f"metrics: {len(metrics)}")
        for name, value in sorted(metrics.items()):
            print(f"  {name} = {value}")
    return 0


def _diff_operand(path) -> Tuple[bool, Dict[str, Any]]:
    """``(True, report)`` for a report, ``(False, metrics)`` otherwise."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ReproError(
            f"{path} holds neither a report, a trace nor a metrics dict"
        )
    if "blame" in data:
        return True, data
    if "traceEvents" in data:
        return False, (data.get("otherData") or {}).get("metrics") or {}
    return False, data  # a bare metrics dict is also accepted


def _diff_blame(a: Dict[str, Any], b: Dict[str, Any], args) -> int:
    ca = a["blame"]["components"]
    cb = b["blame"]["components"]
    regressed = False
    for name in sorted(set(ca) | set(cb)):
        sa = ca.get(name, {}).get("share", 0.0)
        sb = cb.get(name, {}).get("share", 0.0)
        drift = sb - sa
        marker = ""
        if abs(drift) > args.threshold:
            regressed = True
            marker = "  <-- drift"
        print(
            f"{name:12s} {sa * 100:6.1f}% -> {sb * 100:6.1f}% "
            f"({drift * 100:+.1f}pp){marker}"
        )
    sha = a.get("matched_on_arrival_share")
    shb = b.get("matched_on_arrival_share")
    if sha is not None or shb is not None:
        print(
            f"matched-on-arrival share: "
            f"{sha if sha is not None else 'n/a'} -> "
            f"{shb if shb is not None else 'n/a'}"
        )
    if regressed:
        print(
            f"blame shares drifted past {args.threshold * 100:.1f}pp "
            f"({args.a} vs {args.b})"
        )
        return 1
    print("blame shares within threshold")
    return 0


def _diff_metrics(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    changed = False
    for name in sorted(set(a) | set(b)):
        if name not in a:
            print(f"+ {name} = {b[name]}")
            changed = True
        elif name not in b:
            print(f"- {name} = {a[name]}")
            changed = True
        elif a[name] != b[name]:
            print(f"~ {name}: {a[name]} -> {b[name]}")
            changed = True
    if not changed:
        print(f"identical: {len(a)} metrics match")
    return 1 if changed else 0


def cmd_diff(args: argparse.Namespace) -> int:
    report_a, a = _diff_operand(args.a)
    report_b, b = _diff_operand(args.b)
    if report_a != report_b:
        raise ReproError(
            f"cannot diff {args.a} against {args.b}: give two reports, "
            "or two traces or metrics dicts"
        )
    return _diff_blame(a, b, args) if report_a else _diff_metrics(a, b)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description="Run a traced app and explain its critical path, "
        "inspect its Chrome trace, or diff two reports or traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one app with lifecycle tracing and write a report"
    )
    run.add_argument("--app", default="pingpong", help="campaign app id")
    run.add_argument("--network", default="ib", choices=("ib", "elan"))
    run.add_argument("--nodes", type=int, default=2)
    run.add_argument("--ppn", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--arg",
        action="append",
        metavar="NAME=VALUE",
        help="app argument (repeatable), e.g. --arg size=4194304",
    )
    run.add_argument("--label", default="", help="report label")
    run.add_argument("-o", "--output", default="explain.json")
    run.add_argument("--html", default="", help="also write an HTML report")
    run.add_argument(
        "--chrome",
        default="",
        metavar="PATH",
        help="also write the run's Chrome trace_event JSON",
    )
    run.set_defaults(func=cmd_run)

    dump = sub.add_parser("dump", help="print a trace's events as text")
    dump.add_argument("file")
    dump.add_argument("--category", default="", help="only this category")
    dump.add_argument("--limit", type=int, default=0, help="max events (0=all)")
    dump.set_defaults(func=cmd_dump)

    summ = sub.add_parser("summarize", help="aggregate one trace")
    summ.add_argument("file")
    summ.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also list the N slowest complete events",
    )
    summ.add_argument(
        "--phase",
        action="store_true",
        help="also print a per-(category, name) duration histogram",
    )
    summ.set_defaults(func=cmd_summarize)

    diff = sub.add_parser(
        "diff",
        help="compare the blame tables of two reports, or the metrics "
        "of two traces or metrics dicts",
    )
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="max tolerated per-component share drift between two "
        "reports (default 0.05)",
    )
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError, OSError) as exc:
        # A crashed rank surfaces as "process X crashed"; name the deeper
        # fault too, as execute_run's error_cause does.
        cause = root_fault(exc)
        tail = (
            f" (cause: {type(cause).__name__}: {cause})"
            if cause is not None and cause is not exc
            else ""
        )
        print(f"repro-explain: {exc}{tail}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
