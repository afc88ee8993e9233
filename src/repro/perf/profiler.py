"""The kernel profiler: wall-time and allocation attribution per event.

:class:`KernelProfiler` is a :class:`~repro.sim.Simulator` observer
(``Simulator(observers=[...])`` or ``Machine(profiler=...)``).  The
kernel calls it through the one observer protocol: ``on_run_enter`` and
``on_run_exit`` around each ``run()``, and ``on_pop`` once per event,
before the event fires.  Each event is timed from its pop to the next
pop (or to the run's exit), and scheduled events are counted from the
growth of the kernel's sequence number, which every scheduled event
already bumps on either queue (ready queue or time heap) — so the kernel
carries no profiler check of its own.  With no observer attached
(the default) the run takes the kernel's bare loop and nothing here
executes; results are byte-identical either way because the profiler
only ever *reads* the wall clock, never the simulation.

Attribution axes:

* **event type** — the concrete :class:`~repro.sim.events.Event`
  subclass fired (``Timeout``, ``Process``, resource grants, store
  deliveries...): count, wall seconds, net allocated blocks;
* **process class** — the name of each generator resumed by the event,
  with trailing digits stripped, so 256 ``rank<N>`` processes fold into
  one ``rank`` row: count, wall seconds (an event resuming two
  processes credits its whole duration to both — blame, not a
  partition);
* **kernel mechanics** — events scheduled and popped (``heap_pushes``
  and ``heap_pops``, names kept from when every event went through the
  heap; the repo benchmark reads ``heap_pushes``), callbacks dispatched,
  generator resumptions: the raw-operation denominators the speed
  overhaul needs.

All wall-clock reads happen inside this module (the profiler seam);
lint rule RPR012 keeps ``time.perf_counter``/``time.monotonic`` out of
``repro.sim``, ``repro.networks`` and ``repro.mpi``.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

#: The profiler's clock.  Bound once so the kernel never imports
#: :mod:`time` on behalf of profiling.
_clock = time.perf_counter

#: Allocation meter: net allocated memory blocks in the interpreter.
#: Cheap (one C call) and monotone enough for per-event deltas.
_allocated = sys.getallocatedblocks


def _class_of(name: str) -> str:
    """A process name folded to its class: trailing digits stripped.

    ``rank17`` -> ``rank``, ``progress0`` -> ``progress``; a fully
    numeric or empty name stays as-is so nothing folds to ``""``.
    """
    stripped = name.rstrip("0123456789")
    return stripped if stripped else (name or "anonymous")


class _TypeStats:
    """Tallies for one event type (or one process class)."""

    __slots__ = ("count", "wall_s", "allocs")

    def __init__(self) -> None:
        self.count = 0
        self.wall_s = 0.0
        self.allocs = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "wall_s": self.wall_s,
            "allocs": self.allocs,
        }


class KernelProfiler:
    """Per-event wall-time/allocation attribution for one simulator.

    Build one, attach it (``Machine(profiler=...)`` or a simulator's
    ``observers`` list), run, then read :meth:`report`.  Tallies
    accumulate across ``run()`` calls and across simulators run one
    after another.

    ``allocations=False`` skips the per-event allocated-blocks meter
    (one C call per event) for minimum-overhead throughput runs.
    """

    #: The wall clock, exposed so callers time *around* runs with the
    #: same clock the profiler uses internally.
    clock = staticmethod(_clock)

    def __init__(self, allocations: bool = True) -> None:
        self.allocations = allocations
        self.by_event_type: Dict[str, _TypeStats] = {}
        self.by_process_class: Dict[str, _TypeStats] = {}
        #: Kernel-mechanics counters.  ``heap_pushes`` counts every
        #: scheduled event, on the ready queue or the time heap, since
        #: each profiled simulator was built, read from its sequence
        #: number at each run's exit; ``heap_pops`` counts every pop
        #: from either queue.
        self.heap_pushes = 0
        self.heap_pops = 0
        self.callbacks_dispatched = 0
        self.resumptions = 0
        #: Events timed (== heap_pops while attached).
        self.events = 0
        #: Wall seconds spent inside ``run()`` loops (loop overhead
        #: included), accumulated across calls.
        self.loop_wall_s = 0.0
        self._loop_t0 = 0.0
        #: The simulator last run and its sequence number at that run's
        #: exit.
        self._sim: Optional["Simulator"] = None
        self._seq_seen = 0
        #: The event in flight: its type row and the process-class rows
        #: it resumes, the clock and allocation meter at its pop.
        self._open: List[_TypeStats] = []
        self._t0 = 0.0
        self._alloc0 = 0

    # -- kernel observer (hot while profiling) -------------------------------

    def on_run_enter(self, sim: "Simulator") -> None:
        """Start the loop clock."""
        self._loop_t0 = _clock()

    def on_pop(self, t: float, seq: int, event: Any) -> None:
        """Close the previous event's timing and open ``event``'s.

        Callback inspection happens here because firing consumes the
        callback list: any callback bound to a generator-carrying waiter
        (a :class:`~repro.sim.process.Process`) is a resumption,
        credited to that process's class.
        """
        now_s = _clock()
        self._close(now_s)
        self.heap_pops += 1
        self.events += 1
        opened = self._open
        name = type(event).__name__
        stats = self.by_event_type.get(name)
        if stats is None:
            stats = self.by_event_type[name] = _TypeStats()
        stats.count += 1
        opened.append(stats)
        callbacks = event.callbacks
        if callbacks:
            self.callbacks_dispatched += len(callbacks)
            for cb in callbacks:
                owner = getattr(cb, "__self__", None)
                if owner is not None and hasattr(owner, "generator"):
                    self.resumptions += 1
                    cls = _class_of(owner.name)
                    pstats = self.by_process_class.get(cls)
                    if pstats is None:
                        pstats = self.by_process_class[cls] = _TypeStats()
                    pstats.count += 1
                    opened.append(pstats)
        self._t0 = now_s

    def on_run_exit(self, sim: "Simulator") -> None:
        """Close the last event, stop the loop clock, count the events
        scheduled since the last exit."""
        now_s = _clock()
        self._close(now_s)
        self.loop_wall_s += now_s - self._loop_t0
        seen = self._seq_seen if sim is self._sim else 0
        self.heap_pushes += sim._seq - seen
        self._sim, self._seq_seen = sim, sim._seq

    def _close(self, now_s: float) -> None:
        """Credit the wall time since the last pop to the open rows.

        The allocation meter is read at the same boundary, so the next
        event's count starts where this one's ends.
        """
        opened = self._open
        if self.allocations:
            blocks = _allocated()
            if opened:
                opened[0].allocs += blocks - self._alloc0
            self._alloc0 = blocks
        if opened:
            dt = now_s - self._t0
            for stats in opened:
                stats.wall_s += dt
            opened.clear()

    # -- reporting ----------------------------------------------------------

    @property
    def attributed_wall_s(self) -> float:
        """Wall seconds from each pop to the next, summed over types."""
        total = 0.0
        for name in sorted(self.by_event_type):
            total += self.by_event_type[name].wall_s
        return total

    def events_per_sec(self) -> float:
        """Kernel throughput over the profiled loops (0.0 before a run)."""
        if self.loop_wall_s <= 0.0:
            return 0.0
        return self.events / self.loop_wall_s

    def report(self) -> Dict[str, Any]:
        """JSON-ready attribution report, keys sorted for stable diffs."""
        return {
            "events": self.events,
            "loop_wall_s": self.loop_wall_s,
            "attributed_wall_s": self.attributed_wall_s,
            "events_per_sec": round(self.events_per_sec(), 1),
            "by_event_type": {
                name: self.by_event_type[name].as_dict()
                for name in sorted(self.by_event_type)
            },
            "by_process_class": {
                name: self.by_process_class[name].as_dict()
                for name in sorted(self.by_process_class)
            },
            "kernel": {
                "heap_pushes": self.heap_pushes,
                "heap_pops": self.heap_pops,
                "callbacks_dispatched": self.callbacks_dispatched,
                "resumptions": self.resumptions,
            },
        }

    def summary(self, top: int = 3) -> Dict[str, Any]:
        """Compact report for embedding in campaign/serve records."""
        ranked = sorted(
            self.by_event_type.items(),
            key=lambda item: (-item[1].wall_s, item[0]),
        )
        return {
            "events": self.events,
            "loop_wall_s": round(self.loop_wall_s, 6),
            "events_per_sec": round(self.events_per_sec(), 1),
            "top_event_types": [
                {
                    "type": name,
                    "count": stats.count,
                    "wall_s": round(stats.wall_s, 6),
                }
                for name, stats in ranked[:top]
            ],
        }
