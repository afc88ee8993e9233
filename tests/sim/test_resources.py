"""Unit tests for FIFO resources and stores: ordering, stats, misuse."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoResource, Simulator, Store


def test_immediate_grant_when_free():
    sim = Simulator()
    res = FifoResource(sim)
    granted = []

    def proc():
        req = res.request()
        yield req
        granted.append(sim.now)
        res.release(req)

    sim.spawn(proc())
    sim.run()
    assert granted == [0.0]
    assert res.in_use == 0


def test_fifo_order_under_contention():
    sim = Simulator()
    res = FifoResource(sim)
    order = []

    def proc(tag, hold):
        yield from res.using(hold)
        order.append((tag, sim.now))

    sim.spawn(proc("first", 10.0))
    sim.spawn(proc("second", 5.0))
    sim.spawn(proc("third", 1.0))
    sim.run()
    assert order == [("first", 10.0), ("second", 15.0), ("third", 16.0)]


def test_release_of_idle_resource_rejected():
    sim = Simulator()
    res = FifoResource(sim)
    req = res.request()  # granted immediately
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_cancel_queued_request():
    sim = Simulator()
    res = FifoResource(sim)
    held = res.request()
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancellation path
    assert res.queue_length == 0
    res.release(held)


def test_wait_time_statistics():
    sim = Simulator()
    res = FifoResource(sim)

    def holder():
        yield from res.using(8.0)

    def waiter():
        yield sim.timeout(2.0)
        yield from res.using(1.0)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert res.total_grants == 2
    assert res.total_wait_time == pytest.approx(6.0)  # waited from t=2 to t=8


def test_utilization_tracking():
    sim = Simulator()
    res = FifoResource(sim)

    def proc():
        yield from res.using(4.0)
        yield sim.timeout(6.0)

    sim.spawn(proc())
    sim.run()
    assert res.utilization() == pytest.approx(0.4)


def test_store_fifo_delivery():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    def consumer():
        x = yield store.get()
        got.append((x, sim.now))
        y = yield store.get()
        got.append((y, sim.now))

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [("a", 1.0), ("b", 1.0)]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    assert store.waiting_getters == 0

    def consumer():
        yield store.get()

    sim.spawn(consumer())
    sim.run()
    assert store.waiting_getters == 1
    store.put(1)
    sim.run()
    assert store.waiting_getters == 0


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(5)
    assert store.try_get() == 5
    assert len(store) == 0


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        v = yield store.get()
        got.append((tag, v))

    sim.spawn(consumer("x"))
    sim.spawn(consumer("y"))
    sim.run()
    store.put(1)
    store.put(2)
    sim.run()
    assert got == [("x", 1), ("y", 2)]
