"""Message-lifecycle spans: phase shapes, edges, faults, determinism."""

import json

import pytest

from repro.faults import FaultPlan
from repro.microbench.pingpong import pingpong_program
from repro.mpi import Machine
from repro.telemetry import Telemetry
from repro.telemetry.lifecycle import (
    LifecycleRecorder,
    NULL_LIFECYCLE,
    NULL_SPAN,
    matched_on_arrival_share,
)
from repro.telemetry.stream import Timeline

pytestmark = [pytest.mark.telemetry, pytest.mark.lifecycle]


def _run(network, size, reps=3, telemetry=None, faults=None, seed=3):
    machine = Machine(
        network,
        2,
        seed=seed,
        telemetry=telemetry
        if telemetry is not None
        else Telemetry(metrics=True, lifecycle=True, series=True),
        faults=faults,
    )
    result = machine.run(pingpong_program(size=size, repetitions=reps))
    return machine, result


def _spans(machine, kind=None, size=None):
    out = []
    for span in machine.sim.telemetry.lifecycle.spans:
        if kind is not None and span.kind != kind:
            continue
        if size is not None and span.size != size:
            continue
        out.append(span)
    return out


def _phase_names(span):
    return [name for name, _, _ in span.phases]


# -- disabled-by-default null path ------------------------------------------


def test_disabled_machine_hands_out_null_objects():
    machine = Machine("ib", 2)
    assert machine.sim.lifecycle is NULL_LIFECYCLE
    span = machine.sim.lifecycle.start("send", 0, 1, 0, 64, "eager", 0.0)
    assert span is NULL_SPAN
    assert not span.live
    # Every mutator is a silent no-op on the shared null span.
    span.phase("x", 0.0, 1.0)
    span.edge(0.0, span, "y")
    span.note("k", 1)
    span.relabel("rndv")
    span.bump("retries")
    span.finish(5.0)
    assert span.to_dict() == {}
    assert machine.lifecycle_spans() == []
    assert machine.series() == {}


def test_null_span_survives_attribute_protocol_relabel():
    # _NullSpan has empty __slots__; relabel must be a method, never an
    # attribute assignment, or the disabled hot path would raise.
    NULL_SPAN.relabel("tport")
    assert NULL_SPAN.proto == ""


# -- span invariants ---------------------------------------------------------


def test_phases_are_ordered_intervals_within_span():
    machine, _ = _run("ib", 65536)
    spans = _spans(machine)
    assert spans, "expected lifecycle spans"
    for span in spans:
        for name, t0, t1 in span.phases:
            assert t1 > t0, (span, name)
            assert t0 >= span.t0 - 1e-9
            assert t1 <= span.end + 1e-9
        assert span.end >= span.t0


def test_prev_chain_links_spans_of_one_owner():
    machine, _ = _run("ib", 1024)
    by_id = {s.id: s for s in _spans(machine)}
    for span in by_id.values():
        if span.prev_id >= 0:
            assert by_id[span.prev_id].owner == span.owner
            assert by_id[span.prev_id].id < span.id


# -- MVAPICH shapes ---------------------------------------------------------


def test_ib_eager_send_shape():
    machine, _ = _run("ib", 256)
    sends = _spans(machine, kind="send", size=256)
    assert sends
    for span in sends:
        assert span.proto == "eager"
        names = _phase_names(span)
        assert "eager_copy" in names
        assert "wqe_post" in names
        assert "wire:eager" in names
        # Host copy before doorbell before wire.
        assert names.index("eager_copy") < names.index("wqe_post")
        assert names.index("wqe_post") < names.index("wire:eager")
        assert "wb:wire:eager" in span.notes


def test_ib_eager_recv_matches_on_host_not_on_arrival():
    machine, _ = _run("ib", 256)
    recvs = _spans(machine, kind="recv", size=256)
    assert recvs
    for span in recvs:
        assert span.proto == "eager"
        assert span.notes["matched_on_arrival"] == 0
        assert any(label == "host_match" for _, _, label in span.edges)
    assert matched_on_arrival_share(recvs) == 0.0


def test_ib_rendezvous_shapes():
    machine, _ = _run("ib", 65536)
    sends = _spans(machine, kind="send", size=65536)
    recvs = _spans(machine, kind="recv", size=65536)
    assert sends and recvs
    for span in sends:
        assert span.proto == "rndv"
        names = _phase_names(span)
        assert "registration" in names or "reg_lookup" in names
        assert "wire:rts" in names
        # The CTS release is visible as a host_poll edge from the recv.
        assert any(label == "host_poll" for _, _, label in span.edges)
    for span in recvs:
        assert span.proto == "rndv"
        names = _phase_names(span)
        assert "host_match" in names
        assert "wire:cts" in names


# -- Elan shapes -------------------------------------------------------------


def test_elan_eager_shapes_and_nic_matching():
    machine, _ = _run("elan", 256)
    sends = _spans(machine, kind="send", size=256)
    recvs = _spans(machine, kind="recv", size=256)
    assert sends and recvs
    for span in sends:
        assert span.proto == "tport"
        names = _phase_names(span)
        assert "command_post" in names
        assert "wire:tport" in names
    for span in recvs:
        names = _phase_names(span)
        assert "command_post" in names
        assert "event_delivery" in names
        assert any(label == "nic_match" for _, _, label in span.edges)
    # Ping-pong pre-posts every receive: the NIC matches on arrival.
    assert matched_on_arrival_share(recvs) == 1.0


def test_elan_sync_handshake_shapes():
    machine, _ = _run("elan", 65536)
    sends = _spans(machine, kind="send", size=65536)
    recvs = _spans(machine, kind="recv", size=65536)
    assert sends and recvs
    for span in sends:
        assert span.proto == "tport-sync"
        names = _phase_names(span)
        assert "wire:probe" in names
        assert "wire:payload" in names
        assert any(label == "go" for _, _, label in span.edges)
    for span in recvs:
        assert span.proto == "tport-sync"
        assert "wire:go" in _phase_names(span)
        labels = {label for _, _, label in span.edges}
        assert "nic_match" in labels and "dma_setup" in labels


# -- fault annotations -------------------------------------------------------


def test_fault_retries_annotate_spans():
    machine, _ = _run(
        "elan", 65536, reps=6, faults=FaultPlan(ber=1e-4), seed=1
    )
    retries = sum(
        span.notes.get("elan_link_retries", 0) for span in _spans(machine)
    )
    assert retries > 0
    assert retries == machine.sim.faults.elan_link_retries

    # A BER that InfiniBand survives (heavy BER exhausts the RC budget).
    machine, _ = _run(
        "ib", 8192, reps=10, faults=FaultPlan(ber=1e-7), seed=0
    )
    retrans = sum(
        span.notes.get("ib_retransmits", 0) for span in _spans(machine)
    )
    assert retrans > 0
    assert retrans == machine.sim.faults.ib_retransmits
    timed_out = sum(
        span.notes.get("ib_timeout_us", 0.0) for span in _spans(machine)
    )
    assert timed_out > 0.0


# -- determinism -------------------------------------------------------------


def test_same_seed_gives_byte_identical_spans_and_series():
    dumps = []
    for _ in range(2):
        machine, _ = _run("ib", 65536, seed=9)
        payload = {
            "spans": machine.lifecycle_spans(),
            "series": machine.series(points=50),
            "blame": machine.blame(),
        }
        dumps.append(json.dumps(payload, sort_keys=True))
    assert dumps[0] == dumps[1]


def test_enabling_lifecycle_leaves_results_bit_identical():
    baseline = []
    for telemetry in (None, Telemetry(metrics=True, lifecycle=True, series=True)):
        machine = Machine("elan", 2, seed=5, telemetry=telemetry)
        result = machine.run(pingpong_program(size=4096, repetitions=4))
        baseline.append((result.elapsed_us, result.values))
    assert baseline[0] == baseline[1]


# -- bounded buffers ---------------------------------------------------------


def test_lifecycle_recorder_cap_counts_drops_per_category():
    rec = LifecycleRecorder(limit=2)
    a = rec.start("send", 0, 1, 0, 64, "eager", 0.0)
    b = rec.start("recv", 1, 0, 0, 64, "recv", 0.0)
    c = rec.start("send", 0, 1, 0, 64, "eager", 1.0)
    d = rec.start("recv", 1, 0, 0, 64, "recv", 1.0)
    assert a.live and b.live
    assert c is NULL_SPAN and d is NULL_SPAN
    assert rec.dropped == 2
    assert rec.dropped_by_category == {"send.eager": 1, "recv.recv": 1}
    summary = rec.summary()
    assert summary["spans"] == 2
    assert summary["dropped_by_category"]["send.eager"] == 1


def test_timeline_cap_counts_drops_per_category():
    timeline = Timeline(limit=1)
    timeline.span("t", "a", "cat.a", 0.0, 1.0)
    timeline.span("t", "b", "cat.b", 1.0, 1.0)
    timeline.span("t", "c", "cat.b", 2.0, 1.0)
    assert len(timeline) == 1
    assert timeline.dropped == 2
    assert timeline.dropped_by_category == {"cat.b": 2}


def test_series_bank_cap_counts_drops_per_channel():
    from repro.telemetry.series import SeriesBank

    bank = SeriesBank(limit=2)
    ch = bank.channel("x")
    ch.record(0.0, 1.0)
    ch.record(1.0, 2.0)
    ch.record(2.0, 3.0)  # over the cap
    ch.record(2.5, 4.0)  # still over the cap
    assert bank.total_points == 2
    assert bank.dropped_by_channel == {"x": 2}
    sampled = bank.sampled(2.0, dt=1.0)
    assert sampled["channels"]["x"] == [1.0, 2.0, 2.0]
    assert sampled["dropped_by_channel"] == {"x": 2}
