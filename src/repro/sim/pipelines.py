"""Pipelined multi-stage transfers with exact resource contention.

A message crossing ``host -> PCI-X -> wire -> PCI-X -> host`` is a pipeline:
stage *i+1* may begin once the first *chunk* has cleared stage *i*, while
each stage's resource stays busy for the message's full serialization time.
Modelling this at chunk granularity would cost O(chunks) events per message
(a 4 MB transfer in 2 KB MTUs is 2048 chunks); instead each stage is a
single acquire/hold/release with analytically-computed start and finish
times.  Contention remains exact — a stage's resource is occupied for the
true duration — while intra-message pipelining costs O(stages) events.

Timing rules for stage *i* acquiring its resource at time ``a_i``:

* serialization time ``T_i = overhead_i + size / bandwidth_i``;
* finish ``f_i = max(a_i + T_i, f_{i-1} + tail_i)`` where
  ``tail_i = min(size, chunk) / bandwidth_i`` — a fast stage cannot finish
  before the final chunk has left its slower predecessor.  The tail
  bound leaves out the predecessor's ``latency_out`` (a documented
  approximation, MODELING.md §4);
* the first chunk leaves stage *i* at ``a_i + overhead_i + head_i`` and
  reaches stage *i+1* after ``latency_i``, gating that stage's start;
* the message is delivered ``latency_out`` after the last stage finishes.

For messages not larger than one chunk, this degrades to store-and-forward,
which is the correct small-message behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Sequence

from ..errors import SimulationError
from .events import Event, Timeout
from .resources import FifoResource

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

#: Default pipelining chunk: the 4X InfiniBand MTU used by MVAPICH-era
#: stacks and close to the Elan-4 packet payload; both models override it
#: from their parameter sets.
DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    Attributes
    ----------
    resource:
        The contended resource this stage occupies, or ``None`` for a pure
        delay stage (e.g. switch crossing with per-port contention modelled
        in the adjacent link stages).
    bandwidth:
        Serialization bandwidth in bytes/us (== MB/s), or ``None`` for
        infinite (overhead-only stages).
    overhead:
        Fixed per-message cost in us, paid before the first byte moves.
    latency_out:
        Propagation delay in us from this stage to the next.
    name:
        Debug label.
    switch_latency:
        The slice of ``latency_out`` spent crossing a switch/router
        (attribution metadata for blame breakdowns — never used in
        timing, which reads ``latency_out`` alone).
    """

    resource: Optional[FifoResource]
    bandwidth: Optional[float] = None
    overhead: float = 0.0
    latency_out: float = 0.0
    name: str = ""
    switch_latency: float = 0.0

    def __post_init__(self) -> None:
        # Checked once here, so transfer() never meets a NaN, infinite
        # or non-positive rate (a NaN rate would move bytes in no time).
        bw = self.bandwidth
        if bw is not None and not 0.0 < bw < inf:
            raise SimulationError(
                f"stage {self.name!r}: bandwidth must be finite and > 0 "
                f"(or None), got {bw!r}"
            )
        for field in ("overhead", "latency_out", "switch_latency"):
            value = getattr(self, field)
            if not 0.0 <= value < inf:
                raise SimulationError(
                    f"stage {self.name!r}: {field} must be finite and >= 0, "
                    f"got {value!r}"
                )

    def serialization(self, size: int) -> float:
        """Full serialization time for ``size`` bytes."""
        t = self.overhead
        if self.bandwidth is not None:
            t += size / self.bandwidth
        return t

    def chunk_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` (no overhead)."""
        if self.bandwidth is None:
            return 0.0
        return nbytes / self.bandwidth


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
    # A zero delay still yields once, so the gate fires from the heap.
    yield Timeout(sim, delay)
    gate.succeed(value)


def transfer_time_estimate(
    stages: Sequence[Stage], size: int, chunk: int = DEFAULT_CHUNK
) -> float:
    """Closed-form uncontended transfer time (for tests and calibration).

    Computes the same recurrence as :func:`transfer` assuming every resource
    is granted immediately.
    """
    head = min(size, chunk)
    start = 0.0
    prev_finish: Optional[float] = None
    for st in stages:
        a_i = start
        finish = a_i + st.serialization(size)
        if prev_finish is not None:
            finish = max(finish, prev_finish + st.chunk_time(head))
        start = a_i + st.overhead + st.chunk_time(head) + st.latency_out
        prev_finish = finish
    assert prev_finish is not None
    return prev_finish + stages[-1].latency_out
