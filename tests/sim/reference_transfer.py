"""The process-per-stage ``transfer()``: the reference for its callback rewrite.

This is :func:`repro.sim.pipelines.transfer` as it was before its steps
became callbacks, kept verbatim: one process per stage, plus a
``_fire_after`` gate process per stage boundary.  It schedules the same
events, in the same order and at the same float times, as the callback
chain that replaced it, so ``test_transfer_oracle.py`` runs random
scenarios under both and compares them event by event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.pipelines import DEFAULT_CHUNK, Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


def transfer(
    sim: "Simulator",
    stages: Sequence[Stage],
    size: int,
    chunk: int = DEFAULT_CHUNK,
    key: Any = None,
) -> Generator[Event, Any, float]:
    """Run one message of ``size`` bytes through ``stages``.

    A generator to be driven inside a simulation process (``yield from``).
    Returns the completion time (when the last stage finishes).  Zero-byte
    messages still pay each stage's overhead and latency — control messages
    are never free.

    ``key`` identifies the *message* for same-time tiebreak auditing
    (see :meth:`~repro.sim.events.Event.tiebreak_key`): each stage's
    resource grant carries ``(key, stage-index)``, so two transfers
    contending for one bus at the same instant are distinguishable by
    their message identity, not just schedule order.
    """
    if size < 0:
        raise SimulationError(f"negative transfer size: {size}")
    if chunk < 1:
        raise SimulationError(f"chunk must be >= 1, got {chunk}")
    if not stages:
        raise SimulationError("transfer needs at least one stage")

    head = min(size, chunk)
    done = Event(sim)
    n = len(stages)
    # start_gates[i] fires (with predecessor finish time) when stage i may
    # begin acquiring its resource.
    start_gates: List[Event] = [Event(sim) for _ in range(n)]
    start_gates[0].succeed(None)
    if n > len(_STAGE_NAMES):
        _extend_names(n)

    def stage_proc(i: int) -> Generator[Event, Any, None]:
        st = stages[i]
        prev_finish = yield start_gates[i]  # None for stage 0
        res = st.resource
        if res is not None:
            req = res.request(None if key is None else (key, i))
            yield req
        # Stage.serialization and Stage.chunk_time inlined, with the
        # same float expressions in the same order.
        bw = st.bandwidth
        if bw is None:
            t_ser = st.overhead
            head_t = 0.0
        else:
            t_ser = st.overhead + size / bw
            head_t = head / bw
        a_i = sim._now
        finish = a_i + t_ser
        if prev_finish is not None:
            finish = max(finish, prev_finish + head_t)
        # Gate the next stage once the first chunk is out and propagated.
        if i + 1 < n:
            first_out = a_i + st.overhead + head_t + st.latency_out
            gate_delay = max(0.0, first_out - sim._now)
            sim.spawn(
                _fire_after(sim, gate_delay, start_gates[i + 1], finish),
                name=_GATE_NAMES[i + 1],
            )
        hold = max(0.0, finish - sim._now)
        if hold > 0.0:
            yield Timeout(sim, hold)
        if res is not None:
            res.release(req)
        if i == n - 1:
            # Final propagation out of the last stage (delivery latency).
            if st.latency_out > 0.0:
                yield Timeout(sim, st.latency_out)
            done.succeed(sim._now)

    for i in range(n):
        sim.spawn(stage_proc(i), name=_STAGE_NAMES[i])
    end = yield done
    return end


#: Process names of transfer stages and gates, built once per index and
#: only ever appended to (``_GATE_NAMES[0]`` is unused: stage 0 has no
#: gate process).
_STAGE_NAMES: List[str] = []
_GATE_NAMES: List[str] = []


def _extend_names(n: int) -> None:
    for i in range(len(_STAGE_NAMES), n):
        _STAGE_NAMES.append(f"xfer-stage{i}")
        _GATE_NAMES.append(f"gate{i}")


def _fire_after(
    sim: "Simulator", delay: float, gate: Event, value: Any
) -> Generator[Event, Any, None]:
    # A zero delay still yields once, so the gate fires from the
    # schedule (the ready queue), after every event already due now.
    yield Timeout(sim, delay)
    gate.succeed(value)
