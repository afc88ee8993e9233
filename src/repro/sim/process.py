"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects (or other processes — a :class:`Process` *is* an event that fires on
completion, so ``yield child_process`` joins it).  The value sent back into
the generator is the event's value, which lets models write natural code:

.. code-block:: python

    def sender(sim, link):
        yield sim.timeout(1.5)                 # advance time
        grant = link.request()
        yield grant                            # block for the resource
        ...
        link.release(grant)

Processes propagate exceptions: a failed event re-raises inside the
generator, and an uncaught exception inside a generator fails the process
event (and, if nobody joins the process, aborts the simulation run — silent
death hides protocol bugs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import SimulationError
from .events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

ProcGen = Generator[Event, Any, Any]


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcGen, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you call the process function with ()?"
            )
        # Event.__init__ inlined (see Event).
        self.sim = sim
        self.callbacks = []  # repro-lint: disable=RPR022 -- every event owns its callback list
        self._value = _PENDING
        self._exception = None
        self.key = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off at the current simulation time.  The bound method is
        # built per wait, never stored on the process: a stored one would
        # make every process a reference cycle for the cyclic GC.
        start = Event(sim)
        start.callbacks.append(self._resume)
        start.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def describe(self) -> str:
        return f"process {self.name!r}"

    def waiting_description(self) -> str:
        """What this process is currently blocked on (for rosters)."""
        if self.triggered:
            return "finished"
        if self._waiting_on is None:
            return "startup (not yet resumed)"
        return self._waiting_on.describe()

    def _resume(self, ev: Event) -> None:
        """Advance the generator with the value (or exception) of ``ev``."""
        if self._value is not _PENDING or self._exception is not None:
            return  # stale wakeup after the process already finished
        self._waiting_on = None
        try:
            if ev._exception is not None:
                target = self.generator.throw(ev._exception)
            else:
                target = self.generator.send(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberate fail-fast
            self.sim._process_crashed(self, exc)
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc2 = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "  # repro-lint: disable=RPR022 -- crash path: a bad yield ends the process
                "yield Event/Process objects (use sim.timeout(dt) to sleep)"
            )
            self.generator.close()
            self.sim._process_crashed(self, exc2)
            self.fail(exc2)
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
        else:
            target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
