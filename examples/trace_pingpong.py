#!/usr/bin/env python
"""Telemetry walkthrough: counters, timelines and Chrome trace export.

Runs the same 64 KB ping-pong on both simulated interconnects with full
telemetry (metrics registry + timeline + protocol trace log), prints
the protocol counters that explain the paper's mechanisms side by side,
and writes one Chrome ``trace_event`` JSON per technology — open them
in ``chrome://tracing`` or https://ui.perfetto.dev to see per-resource
occupancy and the protocol events over time.

Run:  python examples/trace_pingpong.py [output-dir]
"""

import sys
from pathlib import Path

from repro.microbench.pingpong import pingpong_program
from repro.mpi import NETWORK_LABELS, Machine
from repro.telemetry import Telemetry


#: The counters that localize each paper mechanism (see MODELING.md).
INTERESTING = [
    "mvapich.eager_sends",
    "mvapich.rndv_sends",
    "mvapich.reg_cache.hits",
    "mvapich.reg_cache.misses",
    "mvapich.match_attempts",
    "qmpi.tx",
    "elan.thread.match_attempts",
    "elan.thread.match_cost_us.mean",
    "resource.pcix0.utilization",
    "sim.time_us",
]


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    for network in ("ib", "elan"):
        machine = Machine(
            network,
            2,
            seed=0,
            telemetry=Telemetry(metrics=True, timeline=True, trace=True),
        )
        result = machine.run(pingpong_program(size=65536, repetitions=10))
        print(f"\n{NETWORK_LABELS[network]}  (elapsed {result.elapsed_us:.1f} us)")
        metrics = machine.metrics()
        for name in INTERESTING:
            if name in metrics:
                value = metrics[name]
                shown = f"{value:.4f}" if isinstance(value, float) else value
                print(f"  {name:36s} {shown}")
        path = out_dir / f"pingpong-{network}.json"
        trace = machine.write_chrome_trace(path)
        print(f"  wrote {path} ({len(trace['traceEvents'])} events)")
    print("\nOpen the JSON files in chrome://tracing or ui.perfetto.dev.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
