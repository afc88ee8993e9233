"""The discrete-event simulator core.

:class:`Simulator` owns the schedule and the clock.  Time is a float in
microseconds (see :mod:`repro.units`).  Determinism guarantees:

* same-time events fire in schedule order (a monotone sequence number breaks
  ties), never in hash or insertion-address order;
* all randomness flows through named :class:`~repro.sim.rng.RngStreams`, so
  two runs with the same seed are bit-identical.

The schedule is two queues holding the same ``(time, seq, event)``
entries.  An event due now — ``now + delay == now``, so a delay below
half an ulp of ``now`` counts — goes on the FIFO *ready queue*; only a
later one pays for the time heap.  When the ready queue runs dry the
clock advances to the heap top, and every other entry due at that time
moves onto the ready queue before the top fires.  Every heap entry due
at a time was pushed before the clock reached it, so its ``seq`` is
below that of anything scheduled once the clock is there: events still
fire in exact ``(time, seq)`` order, and the heap only ever holds
entries later than ``now``.

A run ends when the schedule drains.  Crashed processes abort the run unless
someone explicitly joins them — silent process death is how protocol bugs
hide.

The kernel is hardened for unattended campaign use: ``run()`` takes an
event budget and a wall-clock limit, and breaching either raises
:class:`~repro.errors.WatchdogError` carrying a roster of the live
processes and what each was blocked on — the same roster
:class:`~repro.errors.DeadlockError` reports when the schedule drains
with processes still waiting.

Tools that watch the loop (the race sanitizer, the kernel profiler)
are *observers*: objects in the simulator's one ``observers`` list,
called through the :class:`Observer` protocol.  They only read what the
loop hands them, so attaching one never changes the event stream.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Protocol,
    Tuple,
)

from ..errors import SimulationError, WatchdogError
from ..telemetry.collect import DISABLED, Telemetry
from .events import AllOf, AnyOf, Event, Timeout
from .process import ProcGen, Process
from .rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector
    from .resources import FifoResource, Store

#: How many events between wall-clock watchdog checks: rarely enough to
#: stay off the hot path, often enough (< 1 ms of simulation work) that
#: a hung run is caught promptly.
_WALL_CHECK_INTERVAL = 2048


class Observer(Protocol):
    """What the instrumented loop calls on each attached observer.

    ``on_run_enter``/``on_run_exit`` bracket every :meth:`Simulator.run`
    call (exit also runs when the run raises); ``on_pop`` sees each
    event after it leaves the schedule and before its callbacks run.
    """

    def on_run_enter(self, sim: "Simulator") -> None: ...

    def on_pop(self, t: float, seq: int, event: Event) -> None: ...

    def on_run_exit(self, sim: "Simulator") -> None: ...


class Simulator:
    """Discrete-event simulation kernel."""

    def __init__(
        self,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        observers: Iterable[Observer] = (),
    ) -> None:
        self._now = 0.0
        #: Entries due later than ``now``, a heap on ``(time, seq)``.
        self._heap: List[Tuple[float, int, Event]] = []
        #: Entries due at ``now``, in ``seq`` order (see the module doc).
        self._ready: Deque[Tuple[float, int, Event]] = deque()
        #: Same-time tiebreak, bumped once per scheduled event on
        #: either queue; the kernel profiler reads its growth as the
        #: count of scheduled events.
        self._seq = 0
        self._running = False
        self.rng = RngStreams(seed)
        #: The observability bundle (:mod:`repro.telemetry`).  The shared
        #: stateless DISABLED bundle is the default: its registry hands
        #: out no-op instruments, so model code can fetch and call its
        #: counters unconditionally.
        self.telemetry = telemetry if telemetry is not None else DISABLED
        #: Shorthand for ``telemetry.metrics`` — the registry model code
        #: fetches instruments from at construction time.
        self.metrics = self.telemetry.metrics
        #: Shorthands for the per-message span recorder, the series bank
        #: and the protocol trace log (null singletons when disabled,
        #: like the registry).
        self.lifecycle = self.telemetry.lifecycle
        self.series = self.telemetry.series
        self.trace = self.telemetry.trace
        #: Every FifoResource / Store built on this simulator, in
        #: construction order; the metrics snapshot walks the named ones.
        self.resources: List["FifoResource"] = []
        self.stores: List["Store"] = []
        self._crashed: List[Tuple[Process, BaseException]] = []
        #: Live non-daemon processes in spawn order (dict as ordered set).
        self._live: Dict[Process, None] = {}
        #: Events processed since construction (the watchdog's budget
        #: meter, and a cheap measure of simulation work done).
        self.events_processed = 0
        #: The machine builder attaches a :class:`~repro.faults.FaultInjector`
        #: here when a fault plan is enabled; ``None`` means every model
        #: takes its pristine, draw-free fast path.
        self.faults: Optional["FaultInjector"] = None
        #: Loop observers (:class:`Observer`), called in list order.  An
        #: empty list — the default — lets :meth:`run` take its bare
        #: loop.  Observers only read, so attaching one never changes
        #: simulated results; the wall-clock reads of the kernel
        #: profiler stay in :mod:`repro.perf` (lint rule RPR012).
        self.observers: List[Observer] = list(observers)

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    # -- event plumbing ----------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        now = self._now
        at = now + delay
        self._seq += 1
        entry = (at, self._seq, event)  # repro-lint: disable=RPR022 -- the schedule entry is the kernel's one sanctioned per-event tuple
        if at == now:
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def _process_crashed(self, proc: Process, exc: BaseException) -> None:
        self._crashed.append((proc, exc))

    def _raise_crash(self) -> None:
        """Abort the run with the first crashed process's exception."""
        proc, exc = self._crashed[0]
        raise SimulationError(
            f"process {proc.name!r} crashed at t={self._now:.3f}us"
        ) from exc

    # -- public factory helpers --------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (a one-shot signal)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: List[Event]) -> AllOf:
        """Composite event: fires when every child has fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Composite event: fires with ``(index, value)`` of first child."""
        return AnyOf(self, events)

    def spawn(
        self, generator: ProcGen, name: str = "", daemon: bool = False
    ) -> Process:
        """Start a new process running ``generator`` at the current time.

        ``daemon=True`` excludes the process from :meth:`run_all`'s
        deadlock accounting — for service loops (e.g. a progress thread)
        that are *expected* to be blocked when the simulation quiesces.
        """
        proc = Process(self, generator, name=name)
        if not daemon:
            self._live[proc] = None  # a finishing process removes itself
        return proc

    # -- introspection ------------------------------------------------------

    @property
    def live_processes(self) -> int:
        """Number of spawned non-daemon processes that have not finished."""
        return len(self._live)

    def blocked_roster(self) -> List[Tuple[str, str]]:
        """``(name, waiting-on)`` for every live non-daemon process.

        The payload of :class:`~repro.errors.DeadlockError` and
        :class:`~repro.errors.WatchdogError`: enough to see at a glance
        which rank hung and whether it was stuck on a resource, a store,
        or a peer's protocol event.
        """
        return [(p.name, p.waiting_description()) for p in self._live]

    def pending_events(self) -> int:
        """Scheduled events not yet fired; useful for tests asserting
        quiescence."""
        return len(self._heap) + len(self._ready)

    # -- main loop ----------------------------------------------------------

    def run(
        self,
        max_events: Optional[int] = None,
        wall_limit_s: Optional[float] = None,
    ) -> float:
        """Run until the schedule drains; returns the clock at that point.

        Raises the original exception of any crashed, un-joined process.

        ``max_events`` bounds the number of events this *call* may
        process and ``wall_limit_s`` bounds its real elapsed time; either
        breach raises :class:`~repro.errors.WatchdogError` with the
        blocked-process roster.  Both default to unlimited — the
        watchdogs exist for unattended campaign runs, where a livelocked
        model must kill one run, not the whole sweep.

        With neither limit and no observer attached, the run takes
        :meth:`_run_bare`, which fires the same event stream with fewer
        checks per event.  Otherwise the instrumented loop checks the
        two watchdogs before each event, and each observer's ``on_pop``
        runs once per event, bracketed by ``on_run_enter`` and
        ``on_run_exit``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if max_events is None and wall_limit_s is None and not self.observers:
            return self._run_bare()
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1: {max_events}")
        if wall_limit_s is not None and wall_limit_s <= 0:
            raise SimulationError(f"wall_limit_s must be > 0: {wall_limit_s}")
        self._running = True
        budget = max_events
        wall_deadline = (  # watchdog measures real time, not sim time
            time.perf_counter() + wall_limit_s  # repro-lint: disable=RPR001,RPR012
            if wall_limit_s is not None
            else None
        )
        heap = self._heap
        ready = self._ready
        observers = self.observers
        for observer in observers:
            observer.on_run_enter(self)
        try:
            while ready or heap:
                if self._crashed:
                    self._raise_crash()
                if budget is not None:
                    if budget <= 0:
                        raise WatchdogError(
                            f"event budget of {max_events} exhausted",
                            roster=self.blocked_roster(),
                            sim_time=self._now,
                        )
                    budget -= 1
                if (
                    wall_deadline is not None
                    and self.events_processed % _WALL_CHECK_INTERVAL == 0
                    and time.perf_counter() > wall_deadline  # repro-lint: disable=RPR001,RPR012
                ):
                    raise WatchdogError(
                        f"wall-clock limit of {wall_limit_s}s exceeded",
                        roster=self.blocked_roster(),
                        sim_time=self._now,
                    )
                if ready:
                    t, seq, event = ready.popleft()
                else:
                    t, seq, event = heapq.heappop(heap)
                    self._now = t
                    while heap and heap[0][0] == t:
                        ready.append(heapq.heappop(heap))
                self.events_processed += 1
                for observer in observers:
                    observer.on_pop(t, seq, event)
                event._fire()
            if self._crashed:
                self._raise_crash()
        finally:
            self._running = False
            for observer in observers:
                observer.on_run_exit(self)
        return self._now

    def _run_bare(self) -> float:
        """:meth:`run` with no watchdog or observer.

        Fires the same stream as the instrumented loop, with
        ``Event._fire`` inlined; its crash check after each event is
        that loop's check before the next one.  The event count is
        added to :attr:`events_processed` once, on the way out.
        """
        self._running = True
        heap = self._heap
        ready = self._ready
        crashed = self._crashed
        pop = heapq.heappop
        popleft = ready.popleft
        append = ready.append
        fired = 0
        try:
            if crashed:
                self._raise_crash()
            while True:
                if ready:
                    _t, _seq, event = popleft()
                elif heap:
                    t, _seq, event = pop(heap)
                    self._now = t
                    while heap and heap[0][0] == t:
                        append(pop(heap))
                else:
                    break
                fired += 1
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                if crashed:
                    self._raise_crash()
        finally:
            self._running = False
            self.events_processed += fired
        return self._now

    def run_all(
        self,
        max_events: Optional[int] = None,
        wall_limit_s: Optional[float] = None,
    ) -> float:
        """Run to quiescence and verify no process is left blocked.

        Raises :class:`~repro.errors.DeadlockError` if live processes remain
        after the schedule drains — the standard way integration tests catch
        protocol deadlocks (e.g. a rendezvous CTS that never arrives).  The
        error names each blocked process and what it was waiting on.
        Watchdog limits are forwarded to :meth:`run`.
        """
        from ..errors import DeadlockError

        end = self.run(max_events=max_events, wall_limit_s=wall_limit_s)
        if self._live:
            raise DeadlockError(
                len(self._live), roster=self.blocked_roster()
            )
        return end
