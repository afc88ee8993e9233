"""The serve daemon of the traced pass, in its own process.

Runs what ``repro-serve --workers 1 --quiet`` runs (a ``ServeService``
serving until SIGINT) with the benchmark's instruments installed: an
all-threads stack sampler, a kernel profiler per executed run, and
timers around the public calls of the campaign layer and the request
handler.  On SIGINT it stops, writes its per-layer report as JSON to
``--out`` and exits.

    python3 perfbench/serve_helper.py --root DIR --port N --out FILE \
        --first-machines K
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import clock, median  # noqa: E402
from tracing import LayerTrace  # noqa: E402

from repro.serve import ServeService  # noqa: E402
from repro.serve.server import ServeHandler, ServeState  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-machines", type=int, required=True)
    args = parser.parse_args()

    local = threading.local()
    hit_handler_s = []
    submit = ServeState.submit
    handle = ServeHandler._handle

    def marked_submit(self, spec, **kwargs):
        sub = submit(self, spec, **kwargs)
        local.source = sub.source
        return sub

    def timed_handle(self, method):
        local.source = None
        t0 = clock()
        handle(self, method)
        if local.source == "cache":
            hit_handler_s.append(clock() - t0)

    ServeState.submit = marked_submit
    ServeHandler._handle = timed_handle

    trace = LayerTrace()
    service = ServeService(
        args.root, port=args.port, workers=1, memory_cache=4096, echo=None
    )
    try:
        with trace:
            service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    report = trace.layer_metrics(first_machines=args.first_machines)
    report["serve.handler_us"] = (
        1e6 * median(hit_handler_s) if hit_handler_s else 0.0
    )
    report["serve.threads_peak"] = trace.sampler.threads_peak
    report["bases"] = dict(trace.bases, hit_handlers=len(hit_handler_s))
    report["machines_built"] = len(trace.machines)
    trace.write_spans(Path(args.out).with_suffix(".spans.jsonl"))
    Path(args.out).write_text(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
