"""Execution of one :class:`~.spec.RunSpec` — the worker-pool unit.

:func:`execute_run` is a module-level function taking only picklable
arguments so it can cross a :mod:`multiprocessing` boundary unchanged.
The simulator is deterministic for a fixed seed, so the record it
returns is identical whether the run happens in the parent process, a
pool worker, or a different campaign entirely — which is what makes the
content-addressed cache sound.

Robustness: failures never escape — every outcome becomes a journal
record.  A ``timeout_s``/``max_events`` budget arms the simulator's
watchdog, so a hung or runaway point is reported (with its blocked-rank
roster) instead of wedging a worker.  Error records carry both the
surfaced exception and the *root cause* dug out of the ``__cause__``
chain — the difference between "process rank3 crashed" and
"RetryExhaustedError on link up0".
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..faults.recovery import root_fault
from ..mpi import Machine
from ..telemetry import Telemetry
from ..version import __version__
from .programs import build_program
from .spec import RunSpec


def scalar_value(values: List[Any]) -> Optional[float]:
    """The study metric: the slowest rank's numeric return value.

    Matches ``max(result.values)`` for app skeletons (every rank returns
    its elapsed time) while tolerating programs such as ping-pong where
    idle ranks return ``None``.
    """
    numeric = [v for v in values if isinstance(v, (int, float))]
    return float(max(numeric)) if numeric else None


def spec_machine(
    spec: RunSpec, telemetry: Telemetry, profiler: Optional[Any]
) -> Machine:
    """A fresh machine for ``spec``: network, shape, seed, fabric, faults,
    observed by ``telemetry`` and, unless it is ``None``, ``profiler``."""
    return Machine(
        spec.network,
        spec.nodes,
        ppn=spec.ppn,
        seed=spec.seed,
        topology=spec.topology_spec,
        ib_progress_thread=spec.ib_progress_thread,
        faults=spec.fault_plan,
        profiler=profiler,
        telemetry=telemetry,
    )


def execute_run(
    spec: RunSpec,
    trace: bool = False,
    timeout_s: Optional[float] = None,
    max_events: Optional[int] = None,
    lifecycle: bool = False,
    profile: bool = False,
) -> Dict[str, Any]:
    """Run one spec on a fresh machine; always returns a journal record.

    Failures are captured as ``status: "error"`` records rather than
    raised, so one bad point can't take down a campaign (or a worker).
    ``timeout_s`` bounds the run's wall-clock time and ``max_events`` its
    event count via the simulator watchdog; a tripped budget produces an
    error record naming the blocked ranks.  ``lifecycle`` additionally
    collects message spans and occupancy series, folding them into the
    record as a ``blame`` table and a resampled ``series`` block — both
    deterministic, so cached and fresh records stay byte-identical.
    ``trace`` turns on the telemetry trace log and adds its
    per-category counts as a ``trace_summary`` block.  ``profile``
    attaches a :class:`~repro.perf.KernelProfiler` and adds
    its compact summary as a ``perf`` block; the summary carries host
    wall times, so profiled records are *not* byte-stable across runs —
    which is why the flag is off by default and never set by the batch
    engine (the result cache must stay content-pure).
    """
    # Host wall time, not simulated time (see ``wall_s`` below).
    t0 = time.perf_counter()  # repro-lint: disable=RPR001
    record: Dict[str, Any] = {
        "key": spec.key,
        "spec": spec.to_dict(),
        "label": spec.label(),
        "version": __version__,
    }
    # Metrics are deterministic, cheap and picklable; every campaign
    # record carries them (timeline stays off — spans are bulky and
    # reconstructable by re-running with tracing).
    telemetry = Telemetry(
        metrics=True,
        timeline=False,
        lifecycle=lifecycle,
        series=lifecycle,
        trace=trace,
    )
    machine: Optional[Machine] = None
    profiler = None
    if profile:
        from ..perf import KernelProfiler

        profiler = KernelProfiler()
    try:
        # A bad app argument is refused before any machine is built.
        program = build_program(spec.app, spec.args)
        machine = spec_machine(spec, telemetry, profiler)
        result = machine.run(
            program, max_events=max_events, wall_limit_s=timeout_s
        )
        record.update(
            status="ok",
            value=scalar_value(result.values),
            elapsed_us=result.elapsed_us,
        )
        if lifecycle:
            record["blame"] = machine.blame()
            record["series"] = machine.series(points=64)
    except Exception as exc:  # noqa: BLE001 - isolate per-run failures
        cause = root_fault(exc) or exc
        record.update(
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(cause).__name__,
        )
        if cause is not exc:
            record["error_cause"] = f"{type(cause).__name__}: {cause}"
    if machine is not None:
        record["metrics"] = machine.metrics()
        # Absolute simulated end time.  ``elapsed_us`` spans only the
        # measured window (post-init barrier to last return), so
        # ``sim_end_us - elapsed_us`` recovers the window's start — the
        # anchor chaos studies need to aim hard faults at a fraction of
        # the *measured* run rather than at MPI_Init traffic.
        record["sim_end_us"] = machine.sim.now
    if machine is not None and machine.sim.faults is not None:
        record["fault_stats"] = machine.sim.faults.stats()
    if profiler is not None:
        record["perf"] = profiler.summary()
    record["wall_s"] = time.perf_counter() - t0  # repro-lint: disable=RPR001
    if trace:
        record["trace_summary"] = telemetry.trace.summary()
    return record
