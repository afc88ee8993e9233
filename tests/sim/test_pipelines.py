"""Unit tests for the pipelined transfer primitive: timing and contention."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    FifoResource,
    Simulator,
    Stage,
    transfer,
    transfer_time_estimate,
)


def run_transfer(sim, stages, size, chunk=2048):
    out = {}

    def proc():
        end = yield from transfer(sim, stages, size, chunk=chunk)
        out["end"] = end

    sim.spawn(proc())
    sim.run()
    return out["end"]


def test_single_stage_overhead_plus_serialization():
    sim = Simulator()
    st = Stage(resource=None, bandwidth=100.0, overhead=2.0, latency_out=1.0)
    end = run_transfer(sim, [st], 1000)
    # 2.0 overhead + 1000/100 serialization + 1.0 delivery latency
    assert end == pytest.approx(13.0)


def test_zero_byte_message_pays_overheads():
    sim = Simulator()
    stages = [
        Stage(resource=None, bandwidth=None, overhead=1.0, latency_out=0.5),
        Stage(resource=None, bandwidth=None, overhead=2.0, latency_out=0.25),
    ]
    end = run_transfer(sim, stages, 0)
    assert end == pytest.approx(1.0 + 0.5 + 2.0 + 0.25)


def test_small_message_is_store_and_forward():
    sim = Simulator()
    stages = [
        Stage(resource=None, bandwidth=10.0, overhead=0.0, latency_out=0.0),
        Stage(resource=None, bandwidth=10.0, overhead=0.0, latency_out=0.0),
    ]
    # size 100 <= chunk: stage 2 starts only after the full message clears
    # stage 1, so total = 10 + 10.
    end = run_transfer(sim, stages, 100, chunk=2048)
    assert end == pytest.approx(20.0)


def test_large_message_pipelines_across_stages():
    sim = Simulator()
    stages = [
        Stage(resource=None, bandwidth=10.0, overhead=0.0, latency_out=0.0),
        Stage(resource=None, bandwidth=10.0, overhead=0.0, latency_out=0.0),
    ]
    # size 4096 with chunk 1024: stage 2 starts after 1 chunk (102.4us) and
    # finishes one chunk after stage 1: 409.6 + 102.4 = 512, not 819.2.
    end = run_transfer(sim, stages, 4096, chunk=1024)
    assert end == pytest.approx(512.0)


def test_estimate_matches_uncontended_simulation():
    sim = Simulator()
    stages = [
        Stage(resource=None, bandwidth=1066.0, overhead=0.3, latency_out=0.02),
        Stage(resource=None, bandwidth=950.0, overhead=0.1, latency_out=0.4),
        Stage(resource=None, bandwidth=1066.0, overhead=0.3, latency_out=0.02),
    ]
    for size in (0, 1, 512, 2048, 65536, 1 << 20):
        sim2 = Simulator()
        end = run_transfer(sim2, stages, size)
        est = transfer_time_estimate(stages, size)
        assert end == pytest.approx(est, rel=1e-9), size


def test_slow_middle_stage_bounds_finish_time():
    sim = Simulator()
    stages = [
        Stage(resource=None, bandwidth=100.0, overhead=0.0, latency_out=0.0),
        Stage(resource=None, bandwidth=10.0, overhead=0.0, latency_out=0.0),
        Stage(resource=None, bandwidth=100.0, overhead=0.0, latency_out=0.0),
    ]
    size, chunk = 10000, 1000
    end = run_transfer(sim, stages, size, chunk=chunk)
    # Bottleneck stage takes 1000us; the last stage cannot finish earlier
    # than bottleneck finish + one chunk at its own rate.
    assert end >= 1000.0
    assert end == pytest.approx(
        transfer_time_estimate(stages, size, chunk=chunk)
    )


def test_contention_serializes_shared_resource():
    sim = Simulator()
    bus = FifoResource(sim, name="bus")
    stages = [Stage(resource=bus, bandwidth=10.0, overhead=0.0, latency_out=0.0)]
    ends = []

    def proc():
        end = yield from transfer(sim, stages, 100)
        ends.append(end)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    assert sorted(ends) == [pytest.approx(10.0), pytest.approx(20.0)]


def test_negative_size_rejected():
    sim = Simulator()
    st = Stage(resource=None, bandwidth=1.0)

    def proc():
        yield from transfer(sim, [st], -1)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_empty_stage_list_rejected():
    sim = Simulator()

    def proc():
        yield from transfer(sim, [], 10)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_bad_chunk_rejected():
    sim = Simulator()
    st = Stage(resource=None, bandwidth=1.0)

    def proc():
        yield from transfer(sim, [st], 10, chunk=0)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_pipeline_monotone_in_size():
    stages = [
        Stage(resource=None, bandwidth=1066.0, overhead=0.3, latency_out=0.02),
        Stage(resource=None, bandwidth=950.0, overhead=0.1, latency_out=0.4),
        Stage(resource=None, bandwidth=1066.0, overhead=0.3, latency_out=0.02),
    ]
    prev = -1.0
    for size in (0, 1, 2, 64, 1024, 4096, 65536):
        t = transfer_time_estimate(stages, size)
        assert t > prev
        prev = t


def test_two_stage_recurrence_omits_predecessor_latency():
    # A slow first stage with a long hop into a fast second stage.  The
    # last chunk reaches stage 2 at f_1 + head/B_2: the model drops the
    # predecessor's latency_out from that bound (MODELING.md §1, §4), so
    # 4 KiB in 1 KiB chunks ends at 409.6 + 1.024, not 409.6 + 100 + 1.024.
    stages = [
        Stage(resource=None, bandwidth=10.0, latency_out=100.0),
        Stage(resource=None, bandwidth=1000.0),
    ]
    end = run_transfer(Simulator(), stages, 4096, chunk=1024)
    assert end == pytest.approx(410.624)
    assert transfer_time_estimate(stages, 4096, chunk=1024) == end


@pytest.mark.parametrize(
    "bandwidth", [0, 0.0, -5.0, float("nan"), float("inf")]
)
def test_stage_rejects_bad_bandwidth(bandwidth):
    # Zero used to fail only inside a later transfer, and NaN not at
    # all: a NaN-rate stage moved 4 KiB in zero time despite its
    # overhead.
    with pytest.raises(SimulationError, match="bandwidth"):
        Stage(resource=None, bandwidth=bandwidth, overhead=1.0)


@pytest.mark.parametrize("field", ["overhead", "latency_out", "switch_latency"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_stage_rejects_bad_times(field, value):
    with pytest.raises(SimulationError, match=field):
        Stage(resource=None, bandwidth=1.0, **{field: value})

