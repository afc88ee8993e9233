"""``repro-campaign`` console script: run / status / clean.

``run`` executes a campaign described by a JSON spec file (see
EXPERIMENTS.md for the format), ``status`` summarizes a campaign root's
journal and cache, and ``clean`` deletes the cached results, the
journals and the job store.

Example spec file::

    {
      "name": "pingpong-sizes",
      "base": {"app": "pingpong", "nodes": 2},
      "grid": {"network": ["ib", "elan"],
               "app_args.size": [0, 1024, 65536]},
      "repetitions": 1,
      "seed_base": 0
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..errors import ReproError
from .cache import ResultCache
from .chaos import ChaosStudy
from .engine import DEFAULT_ROOT, CampaignEngine
from .journal import Journal
from .scheduler import JobStore, scheduler_status
from .spec import CampaignSpec


def _add_root(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        help=f"campaign state directory (default: {DEFAULT_ROOT})",
    )


def cmd_run(args: argparse.Namespace) -> int:
    campaign = CampaignSpec.from_file(args.spec)
    engine = CampaignEngine(
        root=args.root,
        workers=args.workers,
        trace=args.trace,
        echo=None if args.quiet else (lambda m: print(m, file=sys.stderr)),
        timeout_s=args.timeout,
        max_events=args.max_events,
        max_retries=args.max_retries,
        lifecycle=args.blame,
    )
    result = engine.run(campaign, force=args.force)
    print(result.summary())
    if args.values:
        metric_cols = args.metric or []
        for record in result.records:
            row = {
                "label": record.get("label"),
                "status": record.get("status"),
                "value": record.get("value"),
                "elapsed_us": record.get("elapsed_us"),
            }
            if args.blame and "blame" in record:
                row["blame"] = {
                    name: entry["share"]
                    for name, entry in record["blame"]["components"].items()
                }
            metrics = record.get("metrics") or {}
            for name in metric_cols:
                row[name] = metrics.get(name)
            print(json.dumps(row))
    return 1 if result.errors else 0


def status_payload(root, tail: int = 5) -> dict:
    """Machine-readable campaign-root status.

    The single source of truth for campaign-state reporting: the
    human-readable ``repro-campaign status`` text, its ``--json`` mode
    and the serve daemon's ``GET /v1/status`` all render this dict.
    """
    journal = Journal(f"{root}/journal.jsonl")
    quarantine = Journal(f"{root}/quarantine.jsonl")
    cache = ResultCache(f"{root}/cache")
    entries = list(journal.entries())
    ok = [r for r in entries if r.get("status") == "ok"]
    errors = [r for r in entries if r.get("status") == "error"]
    reused = [r for r in entries if r.get("reused")]
    distinct = {r.get("key") for r in ok}
    sim_wall = sum(r.get("wall_s", 0.0) for r in entries if not r.get("reused"))
    quarantined = []
    for record in quarantine.entries():
        entry = {
            "label": record.get("label", record.get("key")),
            "key": record.get("key"),
            "error": record.get("error", "unknown error"),
        }
        # The reason, not just the count: surfaced exception first, then
        # the root cause dug out of the __cause__ chain when it differs
        # (e.g. "LinkDeadError" under a process crash).
        cause = record.get("error_cause")
        if cause and cause != entry["error"]:
            entry["root_cause"] = cause
        quarantined.append(entry)
    recent = []
    for record in journal.tail(tail):
        entry = {
            "status": record.get("status", "?"),
            "reused": bool(record.get("reused")),
            "label": record.get("label", record.get("key")),
            "key": record.get("key"),
        }
        if entry["status"] == "error":
            reason = record.get("error_cause") or record.get("error")
            if reason:
                entry["reason"] = reason
        recent.append(entry)
    return {
        "root": str(root),
        "journal": {
            "records": len(entries),
            "ok": len(ok),
            "error": len(errors),
            "reused": len(reused),
            "distinct_completed": len(distinct),
            "simulated_wall_s": round(sim_wall, 6),
        },
        "cache": {
            "entries": cache.count(),
            "size_bytes": cache.size_bytes(),
        },
        # Async-scheduler view of the same root: per-state job counts
        # and timing summaries folded from jobs.jsonl (empty-shaped when
        # the root has only ever seen batch runs).
        "scheduler": scheduler_status(root),
        "quarantine": quarantined,
        "recent": recent,
    }


def render_status(payload: dict) -> str:
    """The historical human-readable status text, from the payload."""
    journal = payload["journal"]
    lines = [
        f"campaign root: {payload['root']}",
        f"journal: {journal['records']} records "
        f"({journal['ok']} ok, {journal['error']} error, "
        f"{journal['reused']} reused), "
        f"{journal['distinct_completed']} distinct completed runs, "
        f"{journal['simulated_wall_s']:.2f}s simulated wall time",
        f"cache: {payload['cache']['entries']} entries, "
        f"{payload['cache']['size_bytes'] / 1024.0:.1f} KiB",
    ]
    sched = payload.get("scheduler") or {}
    jobs = sched.get("jobs") or {}
    if sum(count for _, count in sorted(jobs.items())):
        by_state = ", ".join(
            f"{count} {state}" for state, count in sorted(jobs.items()) if count
        )
        lines.append(
            f"scheduler: {by_state}; "
            f"batch cache-hit ratio {sched['cache_hit_ratio']:.2f}, "
            f"mean queue delay {sched['queue_delay_s']['mean'] * 1e3:.1f} ms, "
            f"mean job wall {sched['job_wall_s']['mean']:.2f}s"
        )
    if payload["quarantine"]:
        lines.append(
            f"quarantine: {len(payload['quarantine'])} specs failed all retries"
        )
        for entry in payload["quarantine"]:
            lines.append(f"  [quarantined] {entry['label']}")
            lines.append(f"    error: {entry['error']}")
            if entry.get("root_cause"):
                lines.append(f"    root cause: {entry['root_cause']}")
    for entry in payload["recent"]:
        flag = " (reused)" if entry["reused"] else ""
        lines.append(f"  [{entry['status']}]{flag} {entry['label']}")
        if entry.get("reason"):
            lines.append(f"      {entry['reason']}")
    return "\n".join(lines)


def cmd_status(args: argparse.Namespace) -> int:
    payload = status_payload(args.root, tail=args.tail)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(render_status(payload))
    return 0


def _coerce(text: str):
    """CLI value -> JSON scalar: int, float, bool or string."""
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def _pairs(items) -> dict:
    """Parse repeated ``key=value`` options into a dict."""
    out = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ReproError(f"expected key=value, got {item!r}")
        out[key] = _coerce(value)
    return out


def cmd_chaos(args: argparse.Namespace) -> int:
    study = ChaosStudy(
        app=args.app,
        app_args=_pairs(args.arg),
        nodes=args.nodes,
        ppn=args.ppn,
        topology=_pairs(args.topology),
        networks=tuple(args.network or ("ib", "elan")),
        kill_links=tuple(args.link or ()),
        fractions=tuple(args.at or (0.25, 0.5, 0.75)),
        seed=args.seed,
        fault_knobs=_pairs(args.fault),
    )
    engine = CampaignEngine(
        root=args.root,
        workers=args.workers,
        echo=None if args.quiet else (lambda m: print(m, file=sys.stderr)),
        timeout_s=args.timeout,
        max_events=args.max_events,
    )
    result = study.run(engine)
    print(result.summary())
    if args.json:
        print(json.dumps(result.to_dict()))
    # Survivable-or-structurally-reported cells are the study's point;
    # only an *unexpected* failure (crash, watchdog, deadlock) is an
    # error exit.
    return 1 if result.failures() else 0


def cmd_clean(args: argparse.Namespace) -> int:
    removed = ResultCache(f"{args.root}/cache").clear()
    Journal(f"{args.root}/journal.jsonl").clear()
    Journal(f"{args.root}/quarantine.jsonl").clear()
    JobStore(f"{args.root}/jobs.jsonl").clear()
    print(
        f"removed {removed} cache entries, the journals and the job store "
        f"from {args.root}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Parallel, cached, resumable experiment campaigns "
        "over the InfiniBand/Elan-4 simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign spec file")
    run.add_argument("spec", help="JSON campaign spec file")
    _add_root(run)
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU; default 1 = serial)",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="re-execute every run, ignoring the cache",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="run with tracing on and journal per-category record counts",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget; a hung run fails with a "
        "WatchdogError naming the blocked ranks",
    )
    run.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="per-run simulated-event budget (runaway-program guard)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="re-execute failed runs up to N times before quarantining",
    )
    run.add_argument(
        "--blame",
        action="store_true",
        help="collect lifecycle spans per run; records (and --values rows) "
        "gain a critical-path blame table plus occupancy series",
    )
    run.add_argument(
        "--values", action="store_true", help="print one JSON line per run"
    )
    run.add_argument(
        "--metric",
        action="append",
        metavar="NAME",
        help="with --values, add this telemetry metric as a column "
        "(repeatable; e.g. mvapich.reg_cache.misses)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    run.set_defaults(func=cmd_run)

    chaos = sub.add_parser(
        "chaos",
        help="hard-failure sweep: kill a fabric link at fractions of the "
        "measured window, per technology",
    )
    _add_root(chaos)
    chaos.add_argument(
        "--app", default="is", help="application id (default: is, all-to-all)"
    )
    chaos.add_argument(
        "--arg",
        action="append",
        metavar="KEY=VALUE",
        help="application argument (repeatable; e.g. config=S)",
    )
    chaos.add_argument(
        "--nodes", type=int, default=8, help="node count (default 8)"
    )
    chaos.add_argument(
        "--ppn", type=int, default=1, help="processes per node (default 1)"
    )
    chaos.add_argument(
        "--network",
        action="append",
        choices=["ib", "elan"],
        help="technology to sweep (repeatable; default both)",
    )
    chaos.add_argument(
        "--link",
        action="append",
        metavar="NAME",
        help="fabric link to kill (repeatable; default: first inter-switch "
        "hop of the longest route)",
    )
    chaos.add_argument(
        "--at",
        action="append",
        type=float,
        metavar="FRACTION",
        help="kill time as a fraction of the measured window "
        "(repeatable; default 0.25 0.5 0.75)",
    )
    chaos.add_argument(
        "--topology",
        action="append",
        metavar="KEY=VALUE",
        help="topology field (repeatable; e.g. kind=fattree radix=4 levels=2)",
    )
    chaos.add_argument(
        "--fault",
        action="append",
        metavar="KEY=VALUE",
        help="extra fault-plan knob for degraded runs "
        "(repeatable; e.g. elan_rails=2)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="RNG seed")
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU; default 1 = serial)",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget (simulator watchdog)",
    )
    chaos.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="per-run simulated-event budget",
    )
    chaos.add_argument(
        "--json", action="store_true", help="also print the result as JSON"
    )
    chaos.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    chaos.set_defaults(func=cmd_chaos)

    status = sub.add_parser("status", help="summarize journal and cache")
    _add_root(status)
    status.add_argument(
        "--tail", type=int, default=5, help="recent journal lines to show"
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit the status as one JSON object (the same payload "
        "repro-serve exposes at GET /v1/status)",
    )
    status.set_defaults(func=cmd_status)

    clean = sub.add_parser(
        "clean", help="delete cached results, the journals and the job store"
    )
    _add_root(clean)
    clean.set_defaults(func=cmd_clean)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
