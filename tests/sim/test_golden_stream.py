"""The identical-event-stream contract, pinned on four canonical runs.

Kernel speedups must keep the heap schedule: the same events, pushed in
the same order, at the same float times.  Each spec below runs through
:func:`repro.campaign.runner.execute_run` and its canonical record is
compared with the committed snapshot ``golden_stream.json``, including
``sim.events`` and every ``resource.*`` metric, so a change that adds,
drops or reorders one event fails here before it can move a paper
result.  Host-side fields are dropped: ``wall_s`` is a wall-clock time,
and ``key``/``version`` roll with every release.

Re-record after an intended model change (and say why in the change)::

    PYTHONPATH=src python -m tests.sim.test_golden_stream --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.campaign import RunSpec
from repro.campaign.runner import execute_run
from repro.errors import SimulationError
from repro.sim import Simulator

SNAPSHOT = Path(__file__).with_name("golden_stream.json")

SPECS: Dict[str, Dict[str, Any]] = {
    "ib-pingpong-64": {
        "app": "pingpong", "network": "ib", "nodes": 2,
        "app_args": {"size": 64},
    },
    "elan-pingpong-64k": {
        "app": "pingpong", "network": "elan", "nodes": 2,
        "app_args": {"size": 65536},
    },
    "ib-sweep3d-fattree16": {
        "app": "sweep3d", "network": "ib", "nodes": 16,
        "app_args": {"n": 16}, "topology": {"kind": "fattree", "radix": 4},
    },
    "ib-sweep3d-radix4": {
        "app": "sweep3d", "network": "ib", "nodes": 16,
        "app_args": {"n": 16}, "fabric_radix": 4,
    },
    "elan-sweep3d-torus16": {
        "app": "sweep3d", "network": "elan", "nodes": 16,
        "app_args": {"n": 16}, "topology": {"kind": "torus", "dims": "2x2x4"},
    },
}

#: Record fields that describe the host or the release, not the run.
HOST_FIELDS = ("wall_s", "key", "version")


def canonical(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record as canonical JSON, host fields dropped."""
    for field in HOST_FIELDS:
        record.pop(field, None)
    return json.loads(json.dumps(record, sort_keys=True))


def canonical_record(name: str) -> Dict[str, Any]:
    """``execute_run`` of one spec as canonical JSON, host fields dropped."""
    return canonical(execute_run(RunSpec.from_dict(SPECS[name])))


@functools.lru_cache(maxsize=None)
def default_record(name: str) -> str:
    """The default (bare-loop) record, computed once per test process."""
    return json.dumps(canonical_record(name), sort_keys=True)


@functools.lru_cache(maxsize=None)
def snapshot() -> Dict[str, Any]:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_record_matches_snapshot(name):
    record = json.loads(default_record(name))
    assert record["status"] == "ok"
    assert record["metrics"]["sim.events"] > 0
    assert any(k.startswith("resource.") for k in record["metrics"])
    assert record == snapshot()[name]


@pytest.mark.parametrize("name,observed", [
    pytest.param(name, observed, id=f"{name}-observed" if observed else name)
    for observed in (False, True)
    for name in sorted(SPECS)
])
def test_instrumented_loop_matches_bare_loop(name, observed):
    # An event budget forces the watchdog loop; it must replay the
    # bare loop's stream exactly, and so must a run with the kernel
    # profiler and the trace log attached once their blocks are dropped.
    record = execute_run(
        RunSpec.from_dict(SPECS[name]), max_events=10**9,
        profile=observed, trace=observed,
    )
    if observed:
        assert record.pop("perf")["events"] == record["metrics"]["sim.events"]
        assert record.pop("trace_summary")["total"] > 0
    assert canonical(record) == json.loads(default_record(name))


def _crashing_sim() -> Simulator:
    sim = Simulator()

    def ticker():
        for _ in range(5):
            yield sim.timeout(1.0)

    def crasher():
        yield sim.timeout(2.5)
        raise ValueError("boom")

    sim.spawn(ticker(), name="ticker")
    sim.spawn(crasher(), name="crasher")
    return sim


@pytest.mark.parametrize("max_events", [None, 10**9])
def test_crash_raises_same_error_from_both_loops(max_events):
    sim = _crashing_sim()
    with pytest.raises(SimulationError) as info:
        sim.run(max_events=max_events)
    assert str(info.value) == "process 'crasher' crashed at t=2.500us"
    assert isinstance(info.value.__cause__, ValueError)
    assert sim._running is False
    # Two starts, ticks at 1 and 2, and the crasher's timeout: the crash
    # surfaces right after the event that resumed the crashing process.
    assert sim.events_processed == 5
    assert sim.now == 2.5


def test_bare_loop_counts_events_across_runs():
    sim = _crashing_sim()
    with pytest.raises(SimulationError):
        sim.run()
    first = sim.events_processed
    sim._crashed.clear()
    sim.run()
    assert sim.events_processed > first
    assert sim.pending_events() == 0


def _write() -> None:
    records = {name: canonical_record(name) for name in sorted(SPECS)}
    SNAPSHOT.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    print(f"wrote {SNAPSHOT} ({len(records)} records)")


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sim.test_golden_stream --write")
    _write()
