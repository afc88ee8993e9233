"""Unit tests for the discrete-event kernel: clock, ordering, processes."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)

    sim.spawn(proc())
    end = sim.run()
    assert end == pytest.approx(7.5)


def test_timeout_value_is_delivered():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        got.append(v)

    sim.spawn(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_timeout_rejected(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match="finite"):
        sim.timeout(delay)


def test_nan_delay_cannot_run_the_clock_backwards():
    # A NaN delay used to be accepted (``nan < 0`` is false) and the
    # clock then ran 3.0 -> nan -> 5.0.
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(3.0)
        seen.append(sim.now)
        yield sim.timeout(float("nan"))

    sim.spawn(proc(), name="nan")
    with pytest.raises(SimulationError, match="crashed"):
        sim.run()
    assert seen == [3.0]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(3.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_is_joinable_and_returns_value():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(4.0)
        return 42

    def parent():
        value = yield sim.spawn(child())
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(4.0, 42)]


def test_yielding_non_event_crashes_process():
    sim = Simulator()

    def bad():
        yield 17  # not an Event

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_spawning_non_generator_raises():
    sim = Simulator()

    def not_a_gen():
        return 3

    with pytest.raises(SimulationError):
        sim.spawn(not_a_gen())  # type: ignore[arg-type]


def test_crashed_process_aborts_run_with_cause():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise ValueError("bang")

    sim.spawn(boom())
    with pytest.raises(SimulationError) as ei:
        sim.run()
    assert isinstance(ei.value.__cause__, ValueError)


def test_exception_propagates_through_join():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.spawn(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(parent())
    # The child crash is recorded, but the parent handles it; the kernel
    # still flags the crash (fail-fast policy) unless the event is joined.
    with pytest.raises(SimulationError):
        sim.run()
    # Note: fail-fast means even joined crashes abort; models must not
    # raise across process boundaries as control flow.


def test_run_all_detects_deadlock():
    sim = Simulator()

    def waiter():
        yield sim.event()  # never triggered

    sim.spawn(waiter())
    with pytest.raises(DeadlockError):
        sim.run_all()


def test_run_all_clean_when_everything_finishes():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    sim.spawn(proc())
    assert sim.run_all() == 1.0
    assert sim.live_processes == 0
    assert sim.pending_events() == 0


def test_simulator_not_reentrant():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        sim.run()

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()
