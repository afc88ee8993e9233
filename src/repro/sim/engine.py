"""The discrete-event simulator core.

:class:`Simulator` owns the event heap and the clock.  Time is a float in
microseconds (see :mod:`repro.units`).  Determinism guarantees:

* same-time events fire in schedule order (a monotone sequence number breaks
  ties), never in hash or insertion-address order;
* all randomness flows through named :class:`~repro.sim.rng.RngStreams`, so
  two runs with the same seed are bit-identical.

A run ends when the heap drains, when ``until`` is reached, or when a
watched process finishes (``run(until_process=p)``).  Crashed processes
abort the run unless someone explicitly joins them — silent process death is
how protocol bugs hide.

The kernel is hardened for unattended campaign use: ``run()`` takes an
event budget and a wall-clock limit, and breaching either raises
:class:`~repro.errors.WatchdogError` carrying a roster of the live
processes and what each was blocked on — the same roster
:class:`~repro.errors.DeadlockError` reports when the heap drains with
processes still waiting.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import SimulationError, WatchdogError
from ..telemetry.collect import DISABLED, Telemetry
from .events import AllOf, AnyOf, Event, Timeout
from .process import ProcGen, Process
from .rng import RngStreams
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector
    from .resources import FifoResource, Store

#: How many events between wall-clock watchdog checks: rarely enough to
#: stay off the hot path, often enough (< 1 ms of simulation work) that
#: a hung run is caught promptly.
_WALL_CHECK_INTERVAL = 2048


class Simulator:
    """Discrete-event simulation kernel."""

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
        sanitizer: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self.rng = RngStreams(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        #: The observability bundle (:mod:`repro.telemetry`).  The shared
        #: stateless DISABLED bundle is the default: its registry hands
        #: out no-op instruments, so model code can fetch and call its
        #: counters unconditionally.
        self.telemetry = telemetry if telemetry is not None else DISABLED
        #: Shorthand for ``telemetry.metrics`` — the registry model code
        #: fetches instruments from at construction time.
        self.metrics = self.telemetry.metrics
        #: Shorthands for the per-message span recorder and the series
        #: bank (null singletons when disabled, like the registry).
        self.lifecycle = self.telemetry.lifecycle
        self.series = self.telemetry.series
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
        #: Opt-in same-time race sanitizer
        #: (:class:`~repro.analysis.sanitizer.RaceSanitizer`).  ``None``
        #: — the default — lets :meth:`run` take its bare loop; the
        #: sanitizer only *observes* pops, so enabling it never changes
        #: simulated results.
        self.sanitizer: Optional[Any] = sanitizer
        #: Opt-in kernel self-profiler
        #: (:class:`~repro.perf.KernelProfiler`).  ``None`` — the
        #: default — lets :meth:`run` take its bare loop and costs one
        #: identity check per heap push.  The profiler
        #: only reads the wall clock around ``_fire()``, so attaching
        #: one never changes simulated results; all clock reads live in
        #: :mod:`repro.perf.profiler` (lint rule RPR012 keeps them out
        #: of the kernel).
        self.profiler: Optional[Any] = profiler

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    # -- event plumbing ----------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))  # repro-lint: disable=RPR022 -- the heap entry is the kernel's one sanctioned per-event tuple
        if self.profiler is not None:
            self.profiler.heap_pushes += 1

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
            self._live[proc] = None
            proc.callbacks.append(self._process_done)
        return proc

    def _process_done(self, ev: Event) -> None:
        # The fired event *is* the process (a Process is its own
        # completion event).
        self._live.pop(ev, None)  # type: ignore[arg-type]

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
        """Heap size; useful for tests asserting quiescence."""
        return len(self._heap)

    # -- main loop ----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        until_process: Optional[Process] = None,
        max_events: Optional[int] = None,
        wall_limit_s: Optional[float] = None,
    ) -> float:
        """Run until the heap drains, ``until`` is reached, or a process ends.

        Returns the simulation time at which the run stopped.  Raises the
        original exception of any crashed, un-joined process.

        ``max_events`` bounds the number of events this *call* may
        process and ``wall_limit_s`` bounds its real elapsed time; either
        breach raises :class:`~repro.errors.WatchdogError` with the
        blocked-process roster.  Both default to unlimited — the
        watchdogs exist for unattended campaign runs, where a livelocked
        model must kill one run, not the whole sweep.

        With none of these arguments and no sanitizer or profiler
        attached, the run takes :meth:`_run_bare`, which fires the same
        event stream with fewer checks per event.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if (
            until is None
            and until_process is None
            and max_events is None
            and wall_limit_s is None
            and self.sanitizer is None
            and self.profiler is None
        ):
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
        prof = self.profiler
        if prof is not None:
            prof.enter_run()
        try:
            while self._heap:
                if self._crashed:
                    self._raise_crash()
                if until_process is not None and until_process.triggered:
                    break
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
                t, _seq, event = heapq.heappop(self._heap)
                if until is not None and t > until:
                    # Put it back: the caller may resume later.
                    heapq.heappush(self._heap, (t, _seq, event))  # repro-lint: disable=RPR022 -- put-back of the already-popped heap entry, once per run() return
                    self._now = until
                    break
                self._now = t
                self.events_processed += 1
                if self.sanitizer is not None:
                    self.sanitizer.observe(t, _seq, event)
                if prof is not None:
                    t0 = prof.begin(event)
                    event._fire()
                    prof.end(event, t0)
                else:
                    event._fire()
            else:
                if self._crashed:
                    self._raise_crash()
                if until is not None and self._now < until:
                    self._now = until
        finally:
            self._running = False
            if prof is not None:
                prof.exit_run()
        return self._now

    def _run_bare(self) -> float:
        """:meth:`run` with no stop condition, watchdog or observer.

        Fires the same stream as the instrumented loop, with
        ``Event._fire`` inlined; its crash check after each event is
        that loop's check before the next one.  The event count is
        added to :attr:`events_processed` once, on the way out.
        """
        self._running = True
        heap = self._heap
        crashed = self._crashed
        pop = heapq.heappop
        fired = 0
        try:
            if crashed:
                self._raise_crash()
            while heap:
                t, _seq, event = pop(heap)
                self._now = t
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
        after the heap drains — the standard way integration tests catch
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
