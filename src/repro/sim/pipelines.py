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

The recurrence runs as callbacks: each stage and each gate is one object
whose steps fire on the events it schedules, with no process of its own.
It schedules the events of the process-per-stage version it replaced,
in the same order and at the same times, including that version's
process start and finish events as markers (MODELING.md §2e).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from math import inf
from typing import (
    TYPE_CHECKING, Any, Callable, Generator, Optional, Sequence, Tuple,
)

from ..errors import SimulationError
from .events import _PENDING, Event
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

    The stages run as callbacks (:class:`_Stage`, :class:`_Gate`) on
    the events the transfer schedules, with no process of their own;
    only the caller waits, on the delivery event.
    """
    if size < 0:
        raise SimulationError(f"negative transfer size: {size}")
    if chunk < 1:
        raise SimulationError(f"chunk must be >= 1, got {chunk}")
    if not stages:
        raise SimulationError("transfer needs at least one stage")

    head = min(size, chunk)
    done = Event(sim)
    # Gate 0 opens at once, before stage 0 starts: stage 0 joins it
    # late (_Stage._join).
    Event(sim).succeed(None)
    last = len(stages) - 1
    prev: Optional[_Stage] = None
    # One object per stage; it is the event of each of its own steps.
    for i, st in enumerate(stages):
        stage = _Stage(sim, st, i, size, head, key, done if i == last else None)
        if prev is not None:
            prev.next = stage
        prev = stage
    end = yield done
    return end


class _Step(Event):
    """An event that schedules itself once per step of a transfer.

    A stage or gate is scheduled for each of its events in turn, never
    twice at once, with the step to run as its callbacks: a shared
    one-element tuple of a plain function, which the kernel calls with
    the object itself.  No bound method is stored on the object, so it
    dies by reference counting.  The slots of :class:`Event` are set
    inline, as the kernel's hot subclasses do.
    """

    __slots__ = ()

    def _after(self, delay: float, step: "_Steps") -> None:
        """Schedule ``step`` ``delay`` after now (a timeout's event)."""
        if not delay < inf:
            raise SimulationError(f"transfer delay must be finite: {delay}")
        self.callbacks = step  # type: ignore[assignment]
        sim = self.sim
        now = sim._now
        at = now + delay
        sim._seq += 1
        entry = (at, sim._seq, self)  # repro-lint: disable=RPR022 -- the schedule entry is the kernel's one sanctioned per-event tuple
        if at == now:
            sim._ready.append(entry)
        else:
            heappush(sim._heap, entry)

    def _mark(self, step: "_Steps") -> None:
        """Schedule ``step`` now, behind every event already due now."""
        self.callbacks = step  # type: ignore[assignment]
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._now, sim._seq, self))  # repro-lint: disable=RPR022 -- the schedule entry is the kernel's one sanctioned per-event tuple

    def _finish(self) -> None:
        """The finish event: a marker nothing waits on."""
        self._mark(_NO_STEP)


class _Stage(_Step):
    """Stage ``index`` of one transfer: MODELING §1's steps as callbacks.

    Start marker, then (stage 0) a late join to gate 0, or the gate's
    firing; request, grant, hold, release; the last stage's delivery
    latency and ``done``; and the finish marker.
    """

    __slots__ = (
        "stage", "index", "msg_key", "t_ser", "head_t", "next", "done",
        "prev_finish", "req",
    )

    def __init__(
        self, sim: "Simulator", stage: Stage, index: int, size: int,
        head: int, msg_key: Any, done: Optional[Event],
    ) -> None:
        self.sim = sim
        self._value = _PENDING
        self._exception = None
        self.key = None
        self.stage = stage
        self.index = index
        self.msg_key = msg_key
        # Stage.serialization and Stage.chunk_time inlined, with the
        # same float expressions in the same order.
        bw = stage.bandwidth
        if bw is None:
            self.t_ser = stage.overhead
            self.head_t = 0.0
        else:
            self.t_ser = stage.overhead + size / bw
            self.head_t = head / bw
        #: The next stage, or ``None`` on the last, which owns ``done``.
        self.next: Optional[_Stage] = None
        self.done = done
        #: The predecessor's finish, handed over by the gate.
        self.prev_finish: Optional[float] = None
        self.req: Optional[Event] = None
        # The start marker; only stage 0 acts on it (its gate is open).
        self._mark(_JOIN if index == 0 else _NO_STEP)

    def _join(self) -> None:
        """Stage 0 joins the already open gate 0, one event later."""
        self._mark(_BEGIN)

    def _begin(self) -> None:
        """The gate is open: request the resource, if any."""
        res = self.stage.resource
        if res is None:
            self._granted()
            return
        key = self.msg_key
        self.req = req = res.request(
            None if key is None else (key, self.index)  # repro-lint: disable=RPR022 -- the (message, stage) grant key the sanitizer orders same-time grants by
        )
        req.callbacks.append(self._granted)  # type: ignore[union-attr]

    def _granted(self, _grant: Optional[Event] = None) -> None:
        """Holding the resource from ``a_i = now``: open the next gate,
        then hold until ``f_i``."""
        sim = self.sim
        st = self.stage
        head_t = self.head_t
        a_i = sim._now
        finish = a_i + self.t_ser
        prev_finish = self.prev_finish
        if prev_finish is not None:
            finish = max(finish, prev_finish + head_t)
        nxt = self.next
        if nxt is not None:
            # One object per gate; it is the event of each of its own steps.
            first_out = a_i + st.overhead + head_t + st.latency_out
            _Gate(sim, nxt, max(0.0, first_out - sim._now), finish)
        hold = max(0.0, finish - sim._now)
        if hold > 0.0:
            self._after(hold, _HELD)
        else:
            self._held()

    def _held(self) -> None:
        """Release at ``f_i``; the last stage then delivers."""
        req = self.req
        if req is not None:
            self.stage.resource.release(req)  # type: ignore[union-attr]
        if self.next is not None:
            self._finish()
        elif self.stage.latency_out > 0.0:
            self._after(self.stage.latency_out, _DELIVER)
        else:
            self._deliver()

    def _deliver(self) -> None:
        """The last stage's ``latency_out`` has passed: deliver."""
        self.done.succeed(self.sim._now)  # type: ignore[union-attr]
        self._finish()


class _Gate(_Step):
    """The gate into ``stage``: opens ``delay`` after its predecessor's
    grant and hands it the predecessor's finish time."""

    __slots__ = ("stage", "delay", "finish")

    def __init__(
        self, sim: "Simulator", stage: _Stage, delay: float, finish: float
    ) -> None:
        self.sim = sim
        self._value = _PENDING
        self._exception = None
        self.key = None
        self.stage = stage
        self.delay = delay
        self.finish = finish
        self._mark(_WAIT)  # the start marker

    def _wait(self) -> None:
        # A zero delay still schedules once, so the gate opens from the
        # schedule (the ready queue), after every event already due now.
        self._after(self.delay, _OPEN)

    def _open(self) -> None:
        stage = self.stage
        stage.prev_finish = self.finish
        stage._mark(_BEGIN)
        self._finish()


#: The steps, as the callbacks the kernel calls with the stage or gate.
#: A marker event runs none.
_Steps = Tuple[Callable[[Any], None], ...]
_NO_STEP: _Steps = ()
_JOIN = (_Stage._join,)
_BEGIN = (_Stage._begin,)
_HELD = (_Stage._held,)
_DELIVER = (_Stage._deliver,)
_WAIT = (_Gate._wait,)
_OPEN = (_Gate._open,)


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
