"""KernelProfiler contract: observer purity, attribution, reports.

The acceptance pins: a simulator built without a profiler produces
byte-identical results and executes nothing from ``repro.perf`` (the
kernel never even imports it), and an attached profiler's attribution
is internally consistent — counts match the kernel's own event and
push counts and attributed wall time stays inside the measured loop
time, alone or beside the race sanitizer.
"""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.microbench import pingpong_program
from repro.mpi.machine import Machine
from repro.perf import KernelProfiler
from repro.perf.profiler import _class_of

pytestmark = pytest.mark.perf


def _run(profiler=None, sanitizer=False):
    machine = Machine(
        "elan", 4, seed=0, profiler=profiler, sanitizer=sanitizer
    )
    result = machine.run(
        pingpong_program(4096, 4), check_invariants=True
    )
    return machine, result


def _fingerprint(machine, result) -> str:
    return json.dumps(
        {
            "values": result.values,
            "elapsed_us": result.elapsed_us,
            "rank_spans": result.rank_spans,
            "events": machine.sim.events_processed,
        },
        sort_keys=True,
    )


# -- disabled default ---------------------------------------------------------


def test_profiled_run_is_byte_identical_to_unprofiled():
    """The profiler observes; it must never perturb the simulation."""
    plain = _fingerprint(*_run(profiler=None))
    profiled = _fingerprint(*_run(profiler=KernelProfiler()))
    assert plain == profiled


def test_disabled_path_runs_nothing_from_perf():
    """With no profiler attached, repro.perf code never executes."""
    tracemalloc.start()
    try:
        _run(profiler=None)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    perf_dir = str(Path(__file__).resolve().parents[2] / "src" / "repro" / "perf")
    filtered = snapshot.filter_traces(
        [tracemalloc.Filter(True, perf_dir + "/*")]
    )
    assert sum(s.size for s in filtered.statistics("filename")) == 0


def test_kernel_does_not_import_perf():
    """repro.sim / repro.mpi must not pull in the profiler package."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys; sys.path.insert(0, {src!r}); "
        "import repro.sim, repro.mpi; "
        "assert not any(m.startswith('repro.perf') for m in sys.modules), "
        "[m for m in sys.modules if m.startswith('repro.perf')]"
    ).format(src=str(src))
    subprocess.run([sys.executable, "-c", code], check=True)


# -- attribution --------------------------------------------------------------


def test_attribution_is_internally_consistent():
    prof = KernelProfiler()
    machine, _ = _run(profiler=prof)
    events = machine.sim.events_processed
    assert prof.events == events
    assert prof.heap_pops == events
    # Every push since the machine was built, exactly.
    assert prof.heap_pushes == machine.sim._seq
    assert prof.heap_pushes >= events
    assert sum(s.count for s in prof.by_event_type.values()) == events
    # Attributed time is the pop-to-pop slice of the loop time.
    assert 0.0 < prof.attributed_wall_s <= prof.loop_wall_s
    assert prof.events_per_sec() > 0.0
    # Every resumption credited a process class.
    assert prof.resumptions == sum(
        s.count for s in prof.by_process_class.values()
    )
    assert prof.resumptions > 0
    assert prof.callbacks_dispatched >= prof.resumptions


def test_tallies_accumulate_across_simulators():
    prof = KernelProfiler()
    first_machine, _ = _run(profiler=prof)
    first = prof.events
    second_machine, _ = _run(profiler=prof)
    assert first > 0
    assert prof.events == first + second_machine.sim.events_processed
    assert prof.heap_pushes == first_machine.sim._seq + second_machine.sim._seq


def test_sanitizer_and_profiler_attach_together():
    alone = KernelProfiler(allocations=False)
    plain_machine, plain = _run(profiler=alone)
    both = KernelProfiler(allocations=False)
    machine, result = _run(profiler=both, sanitizer=True)
    assert _fingerprint(machine, result) == _fingerprint(plain_machine, plain)
    assert machine.sanitizer.clean, machine.sanitizer.report()
    assert machine.sanitizer.events_observed == machine.sim.events_processed
    for name in ("events", "heap_pushes", "resumptions"):
        assert getattr(both, name) == getattr(alone, name), name


def test_class_of_folds_numbered_processes():
    assert _class_of("rank17") == "rank"
    assert _class_of("progress0") == "progress"
    assert _class_of("watchdog") == "watchdog"
    assert _class_of("123") == "123"
    assert _class_of("") == "anonymous"


def test_report_and_summary_shapes():
    prof = KernelProfiler()
    _run(profiler=prof)
    report = prof.report()
    assert set(report) == {
        "events",
        "loop_wall_s",
        "attributed_wall_s",
        "events_per_sec",
        "by_event_type",
        "by_process_class",
        "kernel",
    }
    for stats in report["by_event_type"].values():
        assert set(stats) == {"count", "wall_s", "allocs"}
    summary = prof.summary(top=2)
    assert set(summary) == {
        "events",
        "loop_wall_s",
        "events_per_sec",
        "top_event_types",
    }
    assert len(summary["top_event_types"]) <= 2
    json.dumps(report), json.dumps(summary)  # JSON-ready


def test_allocations_off_skips_the_meter():
    prof = KernelProfiler(allocations=False)
    _run(profiler=prof)
    report = prof.report()
    assert all(
        s["allocs"] == 0 for s in report["by_event_type"].values()
    )
