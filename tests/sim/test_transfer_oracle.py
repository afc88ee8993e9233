"""The callback ``transfer()`` against its process-per-stage reference.

:mod:`tests.sim.reference_transfer` keeps ``transfer()`` as it was when
every stage and every gate ran as a process of its own.  The callback
chain that replaced it must schedule the same events, in the same order
and at the same float times, so each random scenario here runs under
both and every observable must be equal:

* each message's finish time (what ``transfer()`` returns);
* each resource's grant order (grant time, request time and key of every
  grant), ``busy_time``, ``total_wait_time`` and ``queue_hwm``;
* ``events_processed`` and the full ``(t, seq)`` pop list, recorded by
  an observer.

Scenarios run 1–6 concurrent transfers over 1–6-stage routes drawn from
a shared pool of 1–4 ``FifoResource``s plus ``None`` delay stages, with
zero-byte, single-chunk and multi-chunk sizes, zero and non-zero
overheads and latencies, start offsets that repeat (same-time starts)
and keyed and unkeyed messages.
"""

from typing import Any, Dict, List, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim import FifoResource, Simulator, Stage
from repro.sim import transfer as callback_transfer

from . import reference_transfer

SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Index into a scenario's resource pool; ``None`` is a pure delay stage.
stage_st = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    st.sampled_from([None, 0.5, 1.0, 3.0, 10.0]),      # bandwidth
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]),       # overhead
    st.sampled_from([0.0, 0.0, 0.1, 2.0]),             # latency_out
)


@st.composite
def message_st(draw: Any, chunk: int) -> Dict[str, Any]:
    size = draw(st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=chunk),
        st.integers(min_value=chunk + 1, max_value=6 * chunk),
    ))
    return {
        "route": draw(st.lists(stage_st, min_size=1, max_size=6)),
        "size": size,
        "start": draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 4.0])),
        "keyed": draw(st.booleans()),
    }


@st.composite
def scenario_st(draw: Any) -> Dict[str, Any]:
    chunk = draw(st.sampled_from([16, 64]))
    return {
        "resources": draw(st.integers(min_value=1, max_value=4)),
        "chunk": chunk,
        "messages": draw(st.lists(message_st(chunk), min_size=1, max_size=6)),
    }


class Pops:
    """Observer: the ``(t, seq)`` of every pop."""

    def __init__(self) -> None:
        self.pops: List[Tuple[float, int]] = []

    def on_run_enter(self, sim: Simulator) -> None:
        pass

    def on_pop(self, t: float, seq: int, event: Any) -> None:
        self.pops.append((t, seq))

    def on_run_exit(self, sim: Simulator) -> None:
        pass


class GrantLog(FifoResource):
    """A ``FifoResource`` that logs every grant in order."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name=name)
        self.grants: List[Tuple[float, float, Any]] = []

    def _grant(self, ev: Any, requested_at: float) -> None:
        self.grants.append((self.sim.now, requested_at, ev.key))
        super()._grant(ev, requested_at)


def run(scenario: Dict[str, Any], transfer: Any) -> Dict[str, Any]:
    """Everything observable about ``scenario`` under ``transfer``."""
    pops = Pops()
    sim = Simulator(observers=[pops])
    pool = [GrantLog(sim, f"r{k}") for k in range(scenario["resources"])]
    chunk = scenario["chunk"]
    finish: Dict[int, float] = {}

    def message(index: int, spec: Dict[str, Any]):
        stages = [
            Stage(
                resource=None if res is None else pool[res % len(pool)],
                bandwidth=bw, overhead=overhead, latency_out=latency,
                name=f"m{index}s{i}",
            )
            for i, (res, bw, overhead, latency) in enumerate(spec["route"])
        ]
        yield sim.timeout(spec["start"])
        key = ("m", index) if spec["keyed"] else None
        finish[index] = yield from transfer(
            sim, stages, spec["size"], chunk=chunk, key=key)

    for index, spec in enumerate(scenario["messages"]):
        sim.spawn(message(index, spec), name=f"msg{index}")
    sim.run_all()
    return {
        "finish": finish,
        "resources": [
            (r.grants, r.busy_time, r.total_wait_time, r.queue_hwm)
            for r in pool
        ],
        "events": sim.events_processed,
        "pops": pops.pops,
    }


#: Always run: three unkeyed same-time transfers whose two stages share
#: one bus, so each later stage queues behind the other messages.
SAME_TIME_ON_ONE_BUS = {
    "resources": 1, "chunk": 16,
    "messages": [{"route": [(0, 1.0, 0.25, 0.1), (0, 10.0, 0.0, 0.0)],
                  "size": 100, "start": 0.0, "keyed": False}] * 3,
}


@SETTINGS
@given(scenario_st())
@example(SAME_TIME_ON_ONE_BUS)
def test_callback_transfer_replays_the_process_reference(scenario):
    reference = run(scenario, reference_transfer.transfer)
    assert run(scenario, callback_transfer) == reference
    # Every message finished, and the observer saw every event.
    assert len(reference["finish"]) == len(scenario["messages"])
    assert len(reference["pops"]) == reference["events"]
