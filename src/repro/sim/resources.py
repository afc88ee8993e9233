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
    """A resource with ``capacity`` slots granted in request order."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # (event, request_time) pairs; Event uses __slots__, so the request
        # time rides alongside rather than on the event.
        self._waiters: Deque[tuple] = deque()
        # -- statistics --------------------------------------------------
        self.total_grants = 0
        self.total_wait_time = 0.0
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        #: Most requests ever queued at once (queue-depth high-water mark).
        self.queue_hwm = 0
        #: Most slots ever granted at once.
        self.in_use_hwm = 0
        #: Slot-time integral (sum over time of slots in use, in slot-us);
        #: ``occupancy()`` normalizes it to [0, 1].
        self.slot_busy_time = 0.0
        self._occ_at = sim.now
        #: Per-grant span recording onto the telemetry timeline, if one
        #: is attached; ``None`` keeps the hot path branch-cheap.
        self._timeline = sim.telemetry.timeline if name else None
        self._grant_times: dict = {}
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
        """An event granted when a slot is free (FIFO order).

        The event's value is the request time, so callers can compute their
        own queueing delay; :attr:`total_wait_time` accumulates it globally.

        ``key`` is the semantic tiebreak key for the grant event (see
        :meth:`~repro.sim.events.Event.tiebreak_key`): pass one when
        same-time requests on this resource have a meaningful order
        (e.g. the wire sequence number of the message being serviced).
        """
        now = self.sim._now
        ev = ResourceRequest(self.sim, self, key)
        if self._in_use < self.capacity and not self._waiters:
            self._grant(ev, now)
        else:
            self._waiters.append((ev, now))  # repro-audit: disable=RPR022 -- waiter pair (request, enqueue time) backs FIFO fairness
            if len(self._waiters) > self.queue_hwm:
                self.queue_hwm = len(self._waiters)
        return ev

    def _grant(self, ev: Event, requested_at: float) -> None:
        now = self.sim._now
        # Occupancy integral up to now, then one more slot in use.
        in_use = self._in_use
        self.slot_busy_time += in_use * (now - self._occ_at)
        self._occ_at = now
        self._in_use = in_use = in_use + 1
        if in_use > self.in_use_hwm:
            self.in_use_hwm = in_use
        self.total_grants += 1
        self.total_wait_time += now - requested_at
        if self._busy_since is None:
            self._busy_since = now
        if self._timeline is not None:
            self._grant_times[ev] = now
        self._series.record(now, in_use)
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
        in_use = self._in_use
        if in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        now = self.sim._now
        # Occupancy integral up to now, then one slot fewer in use.
        self.slot_busy_time += in_use * (now - self._occ_at)
        self._occ_at = now
        self._in_use = in_use = in_use - 1
        self._series.record(now, in_use)
        if self._timeline is not None:
            started = self._grant_times.pop(req, None)
            if started is not None:
                self._timeline.span(
                    self.name,
                    self.name,
                    "resource",
                    started,
                    now - started,
                )
        if self._waiters:
            nxt, requested_at = self._waiters.popleft()
            self._grant(nxt, requested_at)
        elif in_use == 0 and self._busy_since is not None:
            self.busy_time += now - self._busy_since
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
        """Currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiters)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time at least one slot was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        total = elapsed if elapsed is not None else self.sim.now
        return 0.0 if total <= 0 else busy / total

    def occupancy(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of slots in use over time (the busy-time integral
        normalized by capacity).  Equals :meth:`utilization` for
        unit-capacity resources."""
        integral = self.slot_busy_time + self._in_use * (self.sim.now - self._occ_at)
        total = elapsed if elapsed is not None else self.sim.now
        return 0.0 if total <= 0 else integral / (self.capacity * total)


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
            else (ev.key, self._delivery_seq)  # repro-audit: disable=RPR022 -- sanitizer tiebreak stamp, sanctioned per delivery
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
