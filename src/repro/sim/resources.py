"""Contended resources: FIFO resources and message stores.

:class:`FifoResource` models anything that serializes work — a PCI-X bus, a
link direction, a NIC DMA engine, a CPU.  Grants are strictly FIFO, which
matches bus arbitration and switch-port scheduling closely enough for this
study (the paper's effects come from *which* resources are shared, not from
arbitration fairness subtleties).

:class:`Store` is an unbounded FIFO mailbox used for queues between model
components (e.g. NIC-to-host completion queues, the Elan thread processor's
work queue).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional

from ..errors import SimulationError
from ..telemetry.series import NULL_CHANNEL
from .events import _PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class ResourceRequest(Event):
    """The grant event of one :meth:`FifoResource.request` call."""

    __slots__ = ("resource",)

    def __init__(
        self, sim: "Simulator", resource: "FifoResource", key: Any = None
    ) -> None:
        # Event.__init__ inlined (see Event).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.key = key
        self.resource = resource

    def describe(self) -> str:
        name = self.resource.name or "anonymous"
        label = f"resource {name}"
        return label if self.key is None else f"{label} [key={self.key!r}]"

    def race_scope(self) -> Any:
        return self.resource


class StoreGet(Event):
    """The delivery event of one :meth:`Store.get` call."""

    __slots__ = ("store",)

    def __init__(
        self, sim: "Simulator", store: "Store", key: Any = None
    ) -> None:
        super().__init__(sim)
        self.store = store
        self.key = key

    def describe(self) -> str:
        name = self.store.name or "anonymous"
        label = f"store {name}"
        return label if self.key is None else f"{label} [key={self.key!r}]"

    def race_scope(self) -> Any:
        return self.store


class FifoResource:
    """A one-slot resource granted in request order.

    A release hands the slot straight to the oldest waiter, so the slot
    is held exactly while a busy period is open (``_busy_since`` is set).
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        # (event, request_time) pairs; Event uses __slots__, so the request
        # time rides alongside rather than on the event.
        self._waiters: Deque[tuple] = deque()
        # -- statistics --------------------------------------------------
        self.total_grants = 0
        self.total_wait_time = 0.0
        #: Start of the open busy period; ``None`` while the slot is free.
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        #: Most requests ever queued at once (queue-depth high-water mark).
        self.queue_hwm = 0
        #: Per-grant span recording onto the telemetry timeline, if one
        #: is attached; ``None`` keeps the hot path branch-cheap.
        self._timeline = sim.telemetry.timeline if name else None
        #: When the current holder was granted (its timeline span start).
        self._granted_at = 0.0
        #: Change-driven occupancy channel for the series sampler (the
        #: shared null channel when sampling is off or the resource is
        #: anonymous) — fetched once here so grants pay one method call.
        self._series = (
            sim.telemetry.series.channel(f"resource.{name}.in_use")
            if name
            else NULL_CHANNEL
        )
        sim.resources.append(self)

    # -- acquisition -------------------------------------------------------

    def request(self, key: Any = None) -> Event:
        """An event granted when the slot is free (FIFO order).

        The event's value is the request time, so callers can compute their
        own queueing delay; :attr:`total_wait_time` accumulates it globally.

        ``key`` is the semantic tiebreak key for the grant event (see
        :meth:`~repro.sim.events.Event.tiebreak_key`): pass one when
        same-time requests on this resource have a meaningful order
        (e.g. the wire sequence number of the message being serviced).
        """
        now = self.sim._now
        ev = ResourceRequest(self.sim, self, key)
        if self._busy_since is None:
            self._busy_since = now
            self._grant(ev, now)
        else:
            self._waiters.append((ev, now))  # repro-lint: disable=RPR022 -- waiter pair (request, enqueue time) backs FIFO fairness
            if len(self._waiters) > self.queue_hwm:
                self.queue_hwm = len(self._waiters)
        return ev

    def _grant(self, ev: Event, requested_at: float) -> None:
        now = self.sim._now
        self.total_grants += 1
        self.total_wait_time += now - requested_at
        self._granted_at = now
        self._series.record(now, 1)
        ev.succeed(requested_at)

    def release(self, req: Event) -> None:
        """Return the slot held by ``req``."""
        if req._value is _PENDING and req._exception is None:
            # Cancellation of a queued request.
            for pair in self._waiters:
                if pair[0] is req:
                    self._waiters.remove(pair)
                    return
            raise SimulationError("release() of unknown pending request")
        busy_since = self._busy_since
        if busy_since is None:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        now = self.sim._now
        self._series.record(now, 0)
        if self._timeline is not None:
            started = self._granted_at
            self._timeline.span(
                self.name, self.name, "resource", started, now - started
            )
        if self._waiters:
            nxt, requested_at = self._waiters.popleft()
            self._grant(nxt, requested_at)
        else:
            self.busy_time += now - busy_since
            self._busy_since = None

    def using(
        self, duration: float, key: Any = None
    ) -> Generator[Event, Any, None]:
        """Generator helper: acquire, hold ``duration`` us, release."""
        req = self.request(key)
        yield req
        try:
            yield Timeout(self.sim, duration)
        finally:
            self.release(req)

    # -- introspection -------------------------------------------------------

    @property
    def in_use(self) -> int:
        """1 while the slot is held, else 0."""
        return 0 if self._busy_since is None else 1

    @property
    def queue_length(self) -> int:
        """Requests waiting for the slot."""
        return len(self._waiters)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the slot was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        total = elapsed if elapsed is not None else self.sim.now
        return 0.0 if total <= 0 else busy / total


class Store:
    """Unbounded FIFO mailbox with blocking ``get``.

    ``put`` never blocks (queues between hardware components in this model
    are backpressured elsewhere — e.g. by credit counts in the NIC models).
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0
        #: Monotone delivery counter: each completed ``get`` is stamped
        #: with its delivery index as tiebreak key, pinning the semantic
        #: order of same-time deliveries (FIFO) for the race sanitizer.
        self._delivery_seq = 0
        #: Most items ever queued at once (delivery-backlog high-water mark).
        self.depth_hwm = 0
        #: Queue-depth channel for the series sampler (null when off).
        self._series = (
            sim.telemetry.series.channel(f"store.{name}.depth")
            if name
            else NULL_CHANNEL
        )
        sim.stores.append(self)

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter, if any."""
        self.total_puts += 1
        if self._getters:
            ev = self._getters.popleft()
            self._stamp(ev)
            ev.succeed(item)
        else:
            self._items.append(item)
            if len(self._items) > self.depth_hwm:
                self.depth_hwm = len(self._items)
            self._series.record(self.sim.now, len(self._items))

    def get(self, key: Any = None) -> Event:
        """Event delivering the oldest item (immediately if available).

        ``key`` tags the delivery event with a semantic tiebreak key
        (see :meth:`~repro.sim.events.Event.tiebreak_key`) — typically
        ``(queue-name, consumer-rank)`` for service loops, so the
        sanitizer can tell deliberately-ordered same-time deliveries
        from accidental ones.
        """
        ev = StoreGet(self.sim, self, key=key)
        if self._items:
            self._stamp(ev)
            ev.succeed(self._items.popleft())
            self._series.record(self.sim.now, len(self._items))
        else:
            self._getters.append(ev)
        return ev

    def _stamp(self, ev: Event) -> None:
        """Stamp a delivery with its FIFO index (the tiebreak key)."""
        self._delivery_seq += 1
        ev.key = (
            self._delivery_seq
            if ev.key is None
            else (ev.key, self._delivery_seq)  # repro-lint: disable=RPR022 -- sanitizer tiebreak stamp, sanctioned per delivery
        )

    def cancel_get(self, ev: Event) -> None:
        """Withdraw a pending :meth:`get` (no-op if already delivered)."""
        if ev.triggered:
            return
        try:
            self._getters.remove(ev)
        except ValueError:
            raise SimulationError("cancel_get() of unknown getter")

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop: the oldest item or ``None``."""
        if self._items:
            item = self._items.popleft()
            self._series.record(self.sim.now, len(self._items))
            return item
        return None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        """Processes currently blocked in :meth:`get`."""
        return len(self._getters)
