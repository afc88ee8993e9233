"""Periodic Python-stack sampling.

:class:`StackSampler` runs a daemon thread that snapshots the target
thread's call stack every ``interval_ms`` via
``sys._current_frames()`` and folds each sample into a collapsed stack
(``frame;frame;frame``), counted in :attr:`StackSampler.samples`.  The
repo benchmark's traced pass (``perfbench --trace 1``) subclasses it to
sample every thread and turns the counts into per-layer wall shares.
Sampling is wall-clock-driven and therefore non-deterministic by
nature; it never touches simulation state, so it cannot perturb
results (only slow them by the sampling overhead, a few percent at the
default 5 ms interval).

Frames are labelled ``module:function``; frames outside the ``repro``
package collapse into their top-level module name so application noise
(importlib, threading) doesn't shred the counts.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional

#: Stack depth captured per sample; deeper frames are dropped from the
#: root end (the leaves say where a hot loop spends its time).
MAX_DEPTH = 64


def _label(frame) -> str:
    module = frame.f_globals.get("__name__", "?")
    if module.startswith("repro"):
        return f"{module}:{frame.f_code.co_name}"
    return module.split(".")[0]


def fold_frame(frame, max_depth: int = MAX_DEPTH) -> str:
    """One frame chain as a root-first ``;``-joined collapsed stack."""
    parts: List[str] = []
    while frame is not None and len(parts) < max_depth:
        parts.append(_label(frame))
        frame = frame.f_back
    parts.reverse()
    # Adjacent identical labels (collapsed foreign modules) merge so
    # "threading;threading;repro.sim.engine:run" stays readable.
    out: List[str] = []
    for part in parts:
        if not out or out[-1] != part:
            out.append(part)
    return ";".join(out)


class StackSampler:
    """Sample one thread's Python stack on a fixed wall-clock period."""

    def __init__(
        self,
        interval_ms: float = 5.0,
        thread_id: Optional[int] = None,
        max_samples: int = 200_000,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0: {interval_ms}")
        self.interval_s = interval_ms / 1000.0
        #: Thread to sample; defaults to the thread that calls start().
        self.thread_id = thread_id
        self.max_samples = max_samples
        #: Collapsed stack -> observation count.
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self.dropped = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "StackSampler":
        if self._thread is not None:
            return self  # already sampling
        target = (
            self.thread_id
            if self.thread_id is not None
            else threading.get_ident()
        )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(target,), name="repro-perf-sampler",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)

    def _loop(self, target_id: int) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(target_id)
            if frame is None:
                continue
            stack = fold_frame(frame)
            self.total_samples += 1
            if (
                stack not in self.samples
                and len(self.samples) >= self.max_samples
            ):
                self.dropped += 1
                continue
            self.samples[stack] = self.samples.get(stack, 0) + 1
