"""Simulator self-observability: kernel profiling and the perf ladder.

Every other ``repro`` subsystem observes the *simulated* machines; this
one observes the simulator itself.  It answers two questions the roadmap
calls unfalsifiable without it:

* **Where does kernel wall-time go?**  :class:`KernelProfiler` is a
  :class:`~repro.sim.Simulator` loop observer that attributes wall-clock
  time, event counts and allocation deltas per event type and per
  process class, plus kernel-mechanics tallies (heap ops, callback
  dispatch, generator resumptions).  :class:`StackSampler` captures
  periodic Python stacks for collapsed-stack flamegraphs, and
  :func:`kernel_chrome_trace` exports the attribution as Chrome-trace
  "kernel" spans alongside the existing simulation-time exporter.
* **How fast is the simulator, over time?**  :func:`run_ladder` runs a
  standard workload ladder (ping-pong, b_eff, sweep3d across crossbar,
  fat-tree, torus and a degraded fabric) and emits ``BENCH_perf.json``;
  :func:`compare_results` / ``repro-perf diff`` gate events/sec
  regressions against the committed baseline in CI.

A simulator built without observers runs its bare loop: nothing here
executes, nothing is allocated, and the results are byte-identical to
a profiled run — pinned by test.  Profiling only ever *observes*
(wall-clock reads live here, not in the kernel; lint rule RPR012
enforces that seam).
"""

from .diff import (
    DEFAULT_THRESHOLD,
    compare_results,
    load_results,
    render_comparison,
)
from .ladder import (
    LADDER,
    LadderCase,
    ladder_cases,
    run_case,
    run_ladder,
    write_results,
)
from .profiler import KernelProfiler, kernel_chrome_trace
from .sampling import StackSampler

__all__ = [
    "KernelProfiler",
    "StackSampler",
    "kernel_chrome_trace",
    "LADDER",
    "LadderCase",
    "ladder_cases",
    "run_case",
    "run_ladder",
    "write_results",
    "compare_results",
    "load_results",
    "render_comparison",
    "DEFAULT_THRESHOLD",
]
