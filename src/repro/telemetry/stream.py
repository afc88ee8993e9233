"""Bounded event streams and span timelines.

:class:`EventStream` is the protocol trace log, the ``trace`` surface of
:class:`~.collect.Telemetry` (``sim.trace``): time-ordered ``(time,
category, message)`` tuples with **per-category** drop accounting once
the record limit is hit — a drowned-out category is visible as such,
not folded into one global number.  Model code calls
``sim.trace.log(now, category, fmt, *args)`` unconditionally; the
message is built only when a record is stored, and with tracing off the
call lands on the shared :data:`NULL_TRACE`, which does nothing.

:class:`Timeline` records *spans* (named intervals on named tracks) and
*instants*, the raw material of the Chrome ``trace_event`` exporter.
Track ids are assigned in first-use order, which is simulation order and
therefore deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

#: One stream record: (simulation time, category, message).
StreamRecord = Tuple[float, str, str]

#: One timeline span: (track id, name, category, start us, duration us).
Span = Tuple[int, str, str, float, float]

#: One timeline instant: (track id, name, category, time us).
Instant = Tuple[int, str, str, float]


class EventStream:
    """Append-only bounded record store with per-category drop counts."""

    __slots__ = ("limit", "records", "dropped_by_category")

    #: Live streams record; the null trace (enabled=False) drops.
    enabled = True

    def __init__(self, limit: int = 1_000_000) -> None:
        self.limit = limit
        self.records: List[StreamRecord] = []
        self.dropped_by_category: Dict[str, int] = {}

    def log(self, now: float, category: str, fmt: str, *args: Any) -> None:
        """Store ``fmt.format(*args)``, or count a drop once full.

        The message is formatted only when it is stored, so a capped or
        disabled trace costs its callers no string building.
        """
        if len(self.records) >= self.limit:
            self.dropped_by_category[category] = (
                self.dropped_by_category.get(category, 0) + 1
            )
            return
        self.records.append((now, category, fmt.format(*args)))

    @property
    def dropped(self) -> int:
        """Total records dropped across all categories."""
        total = 0
        for count in self.dropped_by_category.values():
            total += count
        return total

    def select(self, category: str) -> List[StreamRecord]:
        """All records of one category, in time order."""
        return [r for r in self.records if r[1] == category]

    def counts(self) -> Dict[str, int]:
        """Stored-record counts per category, sorted by category."""
        by_category: Dict[str, int] = {}
        for _, category, _ in self.records:
            by_category[category] = by_category.get(category, 0) + 1
        return dict(sorted(by_category.items()))

    def summary(self) -> Dict[str, Union[int, Dict[str, int]]]:
        """Per-category record and drop counts plus totals.

        JSON-ready digest — campaign journals attach it to each traced
        run so record volume can be inspected without shipping the
        records themselves.
        """
        return {
            "total": len(self.records),
            "dropped": self.dropped,
            "by_category": self.counts(),
            "dropped_by_category": dict(
                sorted(self.dropped_by_category.items())
            ),
        }

    def clear(self) -> None:
        """Drop all records and reset drop accounting."""
        self.records.clear()
        self.dropped_by_category.clear()

    def __len__(self) -> int:
        return len(self.records)


class _NullTrace:
    """Shared disabled trace: ``log`` drops without formatting."""

    __slots__ = ()

    enabled = False
    records: Tuple[StreamRecord, ...] = ()
    dropped = 0
    dropped_by_category: Dict[str, int] = {}

    def log(self, now: float, category: str, fmt: str, *args: Any) -> None:
        pass

    def summary(self) -> Dict[str, Union[int, Dict[str, int]]]:
        return {
            "total": 0,
            "dropped": 0,
            "by_category": {},
            "dropped_by_category": {},
        }

    def __len__(self) -> int:
        return 0


#: The shared disabled trace used by untraced simulators.
NULL_TRACE = _NullTrace()


class Timeline:
    """Span/instant recorder feeding the Chrome ``trace_event`` export.

    A *track* is one horizontal lane in the viewer — a resource (a link,
    the PCI-X bus, a NIC engine, a CPU) or a protocol category.  Spans on
    the same track may overlap (multi-slot resources); the trace format
    allows it.
    """

    __slots__ = ("limit", "spans", "instants", "_tracks", "dropped_by_category")

    def __init__(self, limit: int = 1_000_000) -> None:
        self.limit = limit
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        #: track name -> tid, in first-use (simulation) order.
        self._tracks: Dict[str, int] = {}
        self.dropped_by_category: Dict[str, int] = {}

    @property
    def dropped(self) -> int:
        """Total records dropped at the cap, across categories."""
        total = 0
        for count in self.dropped_by_category.values():
            total += count
        return total

    def tid(self, track: str) -> int:
        """The stable integer id of ``track``, assigned on first use."""
        t = self._tracks.get(track)
        if t is None:
            t = self._tracks[track] = len(self._tracks)
        return t

    def span(
        self, track: str, name: str, category: str, start: float, duration: float
    ) -> None:
        """Record a completed interval on ``track``."""
        if len(self.spans) + len(self.instants) >= self.limit:
            self.dropped_by_category[category] = (
                self.dropped_by_category.get(category, 0) + 1
            )
            return
        self.spans.append((self.tid(track), name, category, start, duration))

    def instant(self, track: str, name: str, category: str, now: float) -> None:
        """Record a point event on ``track``."""
        if len(self.spans) + len(self.instants) >= self.limit:
            self.dropped_by_category[category] = (
                self.dropped_by_category.get(category, 0) + 1
            )
            return
        self.instants.append((self.tid(track), name, category, now))

    def track_names(self) -> List[str]:
        """All track names, in tid order."""
        return list(self._tracks)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)
