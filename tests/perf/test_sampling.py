"""StackSampler: collapsed-stack capture."""

import re
import threading
import time

import pytest

from repro.perf import StackSampler
from repro.perf.sampling import fold_frame

pytestmark = pytest.mark.perf

#: A collapsed stack: semicolon-joined frame labels, no spaces.
_COLLAPSED_STACK = re.compile(r"^[^;\s]+(;[^;\s]+)*$")


def _busy(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(range(200))


def test_sampler_captures_collapsed_stacks():
    stop = threading.Event()
    worker = threading.Thread(target=_busy, args=(stop,), daemon=True)
    worker.start()
    sampler = StackSampler(interval_ms=1.0, thread_id=worker.ident)
    sampler.start()
    time.sleep(0.25)
    sampler.stop()
    stop.set()
    worker.join(timeout=2.0)

    assert sampler.total_samples > 0
    stacks = list(sampler.samples)
    assert stacks and all(_COLLAPSED_STACK.match(s) for s in stacks)
    assert sum(sampler.samples.values()) + sampler.dropped == (
        sampler.total_samples
    )


def test_sampler_stop_is_idempotent():
    sampler = StackSampler(interval_ms=1.0)
    sampler.start()
    sampler.stop()
    sampler.stop()
    assert sampler._thread is None


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        StackSampler(interval_ms=0)


def test_fold_frame_merges_adjacent_foreign_frames():
    import sys

    frame = sys._getframe()
    stack = fold_frame(frame)
    parts = stack.split(";")
    # This test module is outside repro, so the leaf collapses to its
    # top-level module; adjacent duplicates must have merged.
    assert all(a != b for a, b in zip(parts, parts[1:]))
