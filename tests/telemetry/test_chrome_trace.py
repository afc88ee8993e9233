"""Chrome trace_event export: shape, validation, JSON round-trip."""

import json

import pytest

from repro.microbench.pingpong import pingpong_program
from repro.mpi import Machine
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    load_trace,
    validate_trace,
    write_chrome_trace,
)

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def traced_machine():
    machine = Machine(
        "ib",
        2,
        seed=0,
        telemetry=Telemetry(metrics=True, timeline=True, trace=True),
    )
    machine.run(pingpong_program(size=65536, repetitions=4))
    return machine


def test_trace_has_valid_shape(traced_machine):
    trace = traced_machine.chrome_trace()
    validate_trace(trace)  # does not raise
    events = trace["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert "M" in phases  # metadata names
    assert "X" in phases  # resource occupancy spans
    assert "i" in phases  # trace-log instants


def test_complete_events_have_nonnegative_duration(traced_machine):
    trace = traced_machine.chrome_trace()
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert complete
    for event in complete:
        assert event["dur"] >= 0
        assert event["ts"] >= 0


def test_thread_metadata_names_every_tid(traced_machine):
    trace = traced_machine.chrome_trace()
    events = trace["traceEvents"]
    named = {
        e["tid"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    used = {e["tid"] for e in events if e["ph"] != "M"}
    assert used <= named


def test_other_data_carries_metrics(traced_machine):
    trace = traced_machine.chrome_trace(label="pp-ib")
    other = trace["otherData"]
    assert other["label"] == "pp-ib"
    metrics = other["metrics"]
    assert metrics["mvapich.rndv_sends"] > 0
    assert "resource.pcix0.utilization" in metrics


def test_write_and_load_round_trip(traced_machine, tmp_path):
    path = tmp_path / "trace.json"
    written = traced_machine.write_chrome_trace(path)
    loaded = load_trace(path)
    assert loaded == json.loads(json.dumps(written))


def test_validate_rejects_malformed_traces():
    with pytest.raises(ValueError):
        validate_trace([])
    with pytest.raises(ValueError):
        validate_trace({"notTraceEvents": []})
    with pytest.raises(ValueError):
        validate_trace({"traceEvents": [{"name": "x"}]})
    with pytest.raises(ValueError):
        validate_trace(
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
                ]
            }
        )  # complete event without dur


def test_trace_log_drops_are_reported():
    machine = Machine(
        "ib", 2, seed=0, telemetry=Telemetry(metrics=False, trace=True)
    )
    machine.sim.trace.limit = 2
    machine.run(pingpong_program(size=65536, repetitions=2))
    trace = machine.chrome_trace()
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 2
    dropped = trace["otherData"]["dropped"]["trace"]
    assert dropped == machine.sim.trace.dropped_by_category
    assert sum(dropped.values()) == machine.sim.trace.dropped > 0
    assert list(dropped) == sorted(dropped)


def test_trace_without_timeline_still_exports(tmp_path):
    machine = Machine("elan", 2, seed=0, telemetry=Telemetry(metrics=True))
    machine.run(pingpong_program(size=1024, repetitions=2))
    trace = chrome_trace(machine.sim, label="elan-pp")
    validate_trace(trace)
    assert trace["otherData"]["metrics"]["qmpi.tx"] > 0
    assert trace["otherData"]["dropped"]["trace"] == {}
    path = tmp_path / "t.json"
    write_chrome_trace(path, machine.sim, label="elan-pp")
    load_trace(path)


def test_traces_are_deterministic(tmp_path):
    docs = []
    for _ in range(2):
        machine = Machine(
            "ib",
            2,
            seed=3,
            telemetry=Telemetry(metrics=True, timeline=True, trace=True),
        )
        machine.run(pingpong_program(size=4096, repetitions=3))
        docs.append(json.dumps(machine.chrome_trace(), sort_keys=True))
    assert docs[0] == docs[1]
