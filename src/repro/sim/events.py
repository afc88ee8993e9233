"""Waitable events for the discrete-event kernel.

An :class:`Event` is a one-shot waitable: processes yield it to block until
it is *triggered*.  Triggering can carry a value (delivered as the result of
the ``yield``) or an exception (re-raised inside the waiting process).

Events deliberately mirror the SimPy design — triggering does not run
callbacks synchronously, it schedules them at the current simulation time so
that all same-time activity is ordered by a deterministic sequence number.
An event due now goes on the simulator's ready queue, a later one on its
time heap (see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

#: Sentinel distinguishing "not triggered" from "triggered with None".
_PENDING = object()


class Event:
    """One-shot waitable handle bound to a :class:`Simulator`.

    State machine: *pending* -> *triggered* (value or exception) ->
    *processed* (callbacks have run).  Triggering twice is an error; it
    almost always indicates a protocol bug in a network model.  A
    triggered event is scheduled exactly once, at trigger time.

    The hot subclasses (:class:`Timeout`, processes, resource grants)
    set these slots inline instead of calling ``Event.__init__``; a
    slot added here must be added there too.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "key")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks run when the event fires; each receives the event.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        #: Semantic tiebreak key (see :meth:`tiebreak_key`).  ``None``
        #: means the event claims no ordering significance among
        #: same-time peers.
        self.key: Any = None

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters have been resumed)."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event is pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    @property
    def ok(self) -> bool:
        """True when triggered successfully (not failed)."""
        return self._value is not _PENDING and self._exception is None

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event triggered twice")
        self._value = value
        # Simulator._schedule_event inlined (zero delay, so the ready
        # queue): the hottest push in the kernel.
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._now, sim._seq, self))  # repro-lint: disable=RPR022 -- the schedule entry is the kernel's one sanctioned per-event tuple
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in each waiter."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    # -- kernel interface --------------------------------------------------

    def _fire(self) -> None:
        """Run callbacks.  Called by the instrumented simulator loop (the
        bare loop inlines it)."""
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def describe(self) -> str:
        """Human-readable description for blocked-process rosters.

        Subclasses that know *what* they wait for (a timeout delay, a
        resource, a store) override this; the watchdog and deadlock
        reporters use it to say what a stuck process was blocked on.
        """
        return type(self).__name__

    def tiebreak_key(self) -> Any:
        """Deterministic ordering key among same-time events.

        The kernel already orders same-time events by a monotone
        sequence number, so every run with the same seed is
        bit-identical.  But when two same-time events touch the *same*
        resource, schedule order is semantically arbitrary — an
        unrelated change upstream can swap them and silently shift
        results.  Models therefore attach a semantic key (e.g. the
        network record's global sequence number, or a ``(queue, rank)``
        tuple) to events whose relative order carries meaning; the
        opt-in :class:`~repro.analysis.sanitizer.RaceSanitizer` flags
        same-time pairs on one resource whose keys are missing or
        equal.  ``None`` (the default) means "no ordering claim".
        """
        return self.key

    def race_scope(self) -> Any:
        """The contended object this event touches, for the sanitizer.

        Plain events, timeouts and composites return ``None`` (their
        relative order is fixed by schedule order and nothing else
        observes it); resource grants and store deliveries return the
        resource/store so the sanitizer can group same-time peers.
        """
        return None

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Attach ``cb``; runs immediately via the queue if already fired."""
        if self.callbacks is None:
            # Already processed: schedule a fresh micro-event so ordering
            # stays deterministic rather than invoking synchronously.
            ev = Event(self.sim)
            ev.callbacks.append(lambda _e: cb(self))
            if self._exception is not None:
                # Deliver the failure to the late waiter as well.
                ev._exception = self._exception
                self.sim._schedule_event(ev)
            else:
                ev.succeed(self._value)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """Event that fires ``delay`` microseconds after creation.

    ``delay`` must be finite and non-negative: a NaN delay would put a
    NaN time in the schedule and run the clock backwards.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < inf:
            raise SimulationError(
                f"timeout delay must be finite and >= 0: {delay}"
            )
        # Event.__init__ and Simulator._schedule_event inlined: a
        # timeout is born triggered and scheduled.
        self.sim = sim
        self.callbacks = []  # repro-lint: disable=RPR022 -- every event owns its callback list
        self._value = value
        self._exception = None
        self.key = None
        self.delay = delay
        now = sim._now
        at = now + delay
        sim._seq += 1
        entry = (at, sim._seq, self)  # repro-lint: disable=RPR022 -- the schedule entry is the kernel's one sanctioned per-event tuple
        if at == now:
            sim._ready.append(entry)
        else:
            heappush(sim._heap, entry)

    def describe(self) -> str:
        return f"Timeout({self.delay:g}us)"


class AllOf(Event):
    """Composite event that fires when all child events have fired.

    Succeeds with the list of child values (in the order given).  If any
    child fails, the composite fails with the first failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._child_fired)

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])

    def describe(self) -> str:
        waiting = [c.describe() for c in self._children if not c.triggered]
        return f"AllOf[{', '.join(waiting)}]"


class AnyOf(Event):
    """Composite event that fires when the first child event fires.

    Succeeds with ``(index, value)`` of the first child to fire.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for i, ev in enumerate(self._children):
            ev.add_callback(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def _cb(ev: Event) -> None:
            if self.triggered:
                return
            if ev._exception is not None:
                self.fail(ev._exception)
            else:
                self.succeed((index, ev._value))

        return _cb

    def describe(self) -> str:
        return f"AnyOf[{', '.join(c.describe() for c in self._children)}]"
