"""The ``repro-serve`` console entry point.

Start the campaign-as-a-service daemon over an existing (or fresh)
campaign root::

    repro-serve --root .repro-campaign --port 8642 --workers 4

The daemon resumes any jobs left pending in the root's durable job
store, pre-warms its worker pool, and serves the ``/v1`` API until
interrupted.  ``repro-serve --root ... --print-status`` answers the
same JSON as ``GET /v1/status`` without binding a socket.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..campaign.engine import DEFAULT_ROOT, resolve_workers
from ..errors import ReproError
from ..version import __version__
from .server import ServeService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve campaign results and schedule new runs over HTTP/JSON.",
    )
    parser.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        help=f"campaign root (cache + journal + job store); default {DEFAULT_ROOT}",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for cold runs (0 = one per CPU; default 2)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=None, help="per-run wall-clock timeout"
    )
    parser.add_argument(
        "--max-events", type=int, default=None, help="per-run simulator event budget"
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, help="retries before quarantine"
    )
    parser.add_argument(
        "--retry-backoff-s", type=float, default=0.25, help="base retry backoff"
    )
    parser.add_argument(
        "--lifecycle",
        action="store_true",
        help="collect blame/series on every cold run (enables /explain)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the kernel profiler to every cold run; records gain "
        "a perf summary (read it through GET /v1/jobs/<id>)",
    )
    parser.add_argument(
        "--memory-cache",
        type=int,
        default=4096,
        help="hot in-memory record LRU size (0 disables)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress request/progress logging"
    )
    parser.add_argument(
        "--print-status",
        action="store_true",
        help="print the /v1/status JSON for --root and exit (no socket)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-serve {__version__}"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    echo = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    try:
        service = ServeService(
            args.root,
            host=args.host,
            port=args.port,
            workers=resolve_workers(args.workers),
            timeout_s=args.timeout_s,
            max_events=args.max_events,
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff_s,
            lifecycle=args.lifecycle,
            memory_cache=args.memory_cache,
            profile=args.profile,
            echo=echo,
        )
    except (ReproError, OSError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    if args.print_status:
        print(json.dumps(service.state.status(), indent=2, sort_keys=True))
        service.close()
        return 0
    if echo is not None:
        echo(f"repro-serve {__version__} listening on {service.url} (root={args.root})")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        if echo is not None:
            echo("repro-serve: interrupted, shutting down")
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
