"""Deterministic discrete-event simulation kernel.

The kernel is SimPy-flavoured but purpose-built: generator processes,
one-shot events, FIFO resources, mailbox stores, and an analytic pipelined
transfer primitive that gives exact resource contention at O(stages) events
per message.  See :mod:`repro.sim.engine` for determinism guarantees.

Nothing here records on its own: loop observers (the race sanitizer,
the kernel profiler) attach through ``Simulator(observers=...)``, and
the protocol trace log is the telemetry bundle's ``trace`` surface,
reached as ``sim.trace``.
"""

from .engine import Observer, Simulator
from .events import AllOf, AnyOf, Event, Timeout
from .pipelines import DEFAULT_CHUNK, Stage, transfer, transfer_time_estimate
from .process import Process
from .resources import FifoResource, Store
from .rng import RngStreams

__all__ = [
    "Simulator",
    "Observer",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "FifoResource",
    "Store",
    "RngStreams",
    "Stage",
    "transfer",
    "transfer_time_estimate",
    "DEFAULT_CHUNK",
]
