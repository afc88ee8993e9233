"""Race sanitizer on hand-built events plus kernel tiebreak regression."""

import pytest

from repro.analysis.sanitizer import _MAX_RECORDED, RaceSanitizer
from repro.sim import Simulator
from repro.sim.resources import FifoResource, Store


pytestmark = pytest.mark.analysis


class FakeEvent:
    """Duck-typed stand-in for :class:`repro.sim.events.Event`."""

    def __init__(self, scope=None, key=None, label="fake"):
        self._scope = scope
        self.key = key
        self._label = label

    def race_scope(self):
        return self._scope

    def tiebreak_key(self):
        return self.key

    def describe(self):
        return self._label


class Scope:
    def __init__(self, name):
        self.name = name


class TestHandBuiltRaces:
    def test_missing_keys_is_a_race(self):
        scope = Scope("nic.thread")
        san = RaceSanitizer()
        san.on_pop(1.0, 0, FakeEvent(scope, None, "grant a"))
        san.on_pop(1.0, 1, FakeEvent(scope, None, "grant b"))
        san.on_run_exit(None)
        assert san.race_count == 1
        assert not san.clean
        (finding,) = san.findings
        assert finding.scope == "Scope(nic.thread)"
        assert "no tiebreak key" in finding.reason
        assert [desc for _s, _k, desc in finding.events] == [
            "grant a", "grant b",
        ]

    def test_duplicate_keys_is_a_race(self):
        scope = Scope("inbox")
        san = RaceSanitizer()
        san.on_pop(2.0, 0, FakeEvent(scope, ("msg", 7)))
        san.on_pop(2.0, 1, FakeEvent(scope, ("msg", 7)))
        san.on_run_exit(None)
        assert san.race_count == 1
        assert san.findings[0].reason == "duplicate tiebreak keys"

    def test_distinct_keys_is_clean(self):
        scope = Scope("inbox")
        san = RaceSanitizer()
        san.on_pop(2.0, 0, FakeEvent(scope, ("msg", 1)))
        san.on_pop(2.0, 1, FakeEvent(scope, ("msg", 2)))
        san.on_run_exit(None)
        assert san.clean
        assert san.race_count == 0

    def test_different_scopes_do_not_race(self):
        san = RaceSanitizer()
        san.on_pop(3.0, 0, FakeEvent(Scope("a")))
        san.on_pop(3.0, 1, FakeEvent(Scope("b")))
        san.on_run_exit(None)
        assert san.clean

    def test_different_times_do_not_race(self):
        scope = Scope("a")
        san = RaceSanitizer()
        san.on_pop(1.0, 0, FakeEvent(scope))
        san.on_pop(2.0, 1, FakeEvent(scope))
        san.on_run_exit(None)
        assert san.clean

    def test_scopeless_events_ignored(self):
        san = RaceSanitizer()
        san.on_pop(1.0, 0, FakeEvent(None))
        san.on_pop(1.0, 1, FakeEvent(None))
        san.on_run_exit(None)
        assert san.clean
        assert san.events_observed == 2

    def test_unhashable_keys_compared_positionally(self):
        scope = Scope("a")
        san = RaceSanitizer()
        san.on_pop(1.0, 0, FakeEvent(scope, ["x"]))
        san.on_pop(1.0, 1, FakeEvent(scope, ["x"]))
        san.on_run_exit(None)
        assert san.race_count == 1

    def test_order_violation_detected(self):
        san = RaceSanitizer()
        san.on_pop(1.0, 5, FakeEvent())
        san.on_pop(1.0, 3, FakeEvent())
        san.on_run_exit(None)
        (violation,) = san.order_violations
        assert violation.previous == (1.0, 5)
        assert violation.current == (1.0, 3)
        assert not san.clean

    def test_recording_cap_keeps_exact_count(self):
        san = RaceSanitizer()
        for i in range(_MAX_RECORDED + 10):
            scope = Scope(f"s{i}")
            san.on_pop(float(i), 2 * i, FakeEvent(scope))
            san.on_pop(float(i), 2 * i + 1, FakeEvent(scope))
        san.on_run_exit(None)
        assert san.race_count == _MAX_RECORDED + 10
        assert len(san.findings) == _MAX_RECORDED
        assert "further race(s) not recorded" in san.report()

    def test_report_summarizes(self):
        scope = Scope("res")
        san = RaceSanitizer()
        san.on_pop(1.0, 0, FakeEvent(scope, None, "ev0"))
        san.on_pop(1.0, 1, FakeEvent(scope, None, "ev1"))
        san.on_run_exit(None)
        report = san.report()
        assert "2 events observed" in report
        assert "1 race(s)" in report
        assert "ev0" in report and "ev1" in report


class TestKernelIntegration:
    """The sanitizer riding a real :class:`Simulator`."""

    def run_two_grants(self, key_of):
        san = RaceSanitizer()
        sim = Simulator(observers=[san])
        res = FifoResource(sim, name="dut")
        order = []

        def proc(n):
            req = res.request(key=key_of(n))
            yield req
            order.append(n)
            yield sim.timeout(0.0)
            res.release(req)

        for n in range(2):
            sim.spawn(proc(n), name=f"p{n}")
        sim.run_all()
        return san, order

    def test_unkeyed_same_time_grants_flagged(self):
        san, _ = self.run_two_grants(lambda n: None)
        assert san.race_count >= 1
        assert any("dut" in f.scope for f in san.findings)

    def test_racy_run_is_unclean_before_any_report(self):
        # The race sits in the run's last timestamp group; the run's exit
        # must judge it, not a later report() call.
        san, _ = self.run_two_grants(lambda n: None)
        assert not san.clean
        assert san.race_count == 1
        assert "1 race(s)" in san.report()
        assert san.race_count == 1

    def test_keyed_same_time_grants_clean(self):
        san, order = self.run_two_grants(lambda n: n)
        assert san.clean, san.report()
        assert order == [0, 1]

    def test_store_deliveries_auto_stamped(self):
        san = RaceSanitizer()
        sim = Simulator(observers=[san])
        store = Store(sim, name="inbox")
        got = []

        def consumer():
            for _ in range(2):
                item = yield store.get()
                got.append(item)

        def producer():
            store.put("a")
            store.put("b")
            yield sim.timeout(0.0)

        sim.spawn(consumer(), name="c")
        sim.spawn(producer(), name="p")
        sim.run_all()
        assert san.clean, san.report()
        assert got == ["a", "b"]


class TestTiebreakRegression:
    """Satellite: same-time events on one resource fire in request order
    with distinct, deterministic tiebreak keys."""

    def test_same_time_grants_fire_in_request_order(self):
        sim = Simulator()
        res = FifoResource(sim, name="link")
        fired = []

        def proc(n):
            req = res.request(key=("rank", n))
            assert req.tiebreak_key() == ("rank", n)
            yield req
            fired.append(n)
            yield sim.timeout(0.0)
            res.release(req)

        for n in range(4):
            sim.spawn(proc(n), name=f"p{n}")
        sim.run_all()
        assert fired == [0, 1, 2, 3]

    def test_machine_run_is_race_free(self):
        from repro.microbench import pingpong_program
        from repro.mpi.machine import Machine

        for network in ("ib", "elan"):
            machine = Machine(network, 2, seed=3, sanitizer=True)
            machine.run(pingpong_program(4096, 3, warmup=1))
            assert machine.sanitizer.clean, machine.sanitizer.report()
            assert machine.sanitizer.events_observed > 0
