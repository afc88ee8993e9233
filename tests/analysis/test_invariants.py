"""End-of-run invariant checks: clean runs pass, injected leaks are caught,
and enabling the checks never changes simulated results."""

import json

import pytest

from repro.analysis import check_invariants, verify_invariants
from repro.analysis.invariants import check_kernel, check_lifecycle
from repro.errors import InvariantViolation
from repro.microbench import pingpong_program
from repro.mpi.machine import Machine
from repro.sim import Simulator
from repro.sim.resources import FifoResource, Store
from repro.telemetry import Telemetry


pytestmark = pytest.mark.analysis


def run_machine(network, **kwargs):
    machine = Machine(network, 2, seed=7, **kwargs)
    result = machine.run(pingpong_program(4096, 3, warmup=1))
    return machine, result


class TestCleanRuns:
    @pytest.mark.parametrize("network", ["ib", "elan"])
    def test_clean_run_has_no_violations(self, network):
        machine, _ = run_machine(network)
        assert check_invariants(machine) == []

    @pytest.mark.parametrize("network", ["ib", "elan"])
    def test_run_with_checks_enabled_passes(self, network):
        machine = Machine(network, 2, seed=7)
        machine.run(
            pingpong_program(4096, 3, warmup=1), check_invariants=True
        )


class TestInjectedLeaks:
    def test_credit_leak_caught(self):
        machine, _ = run_machine("ib")
        ctx, _hca = machine.impl._ranks[0]
        ctx.impl_state.credits[1] -= 1  # simulate a never-returned slot
        violations = check_invariants(machine)
        names = {(v.subsystem, v.name) for v in violations}
        assert ("mvapich", "credits_balanced") in names, violations

    def test_credit_leak_raises_structured_error(self):
        machine, _ = run_machine("ib")
        ctx, _hca = machine.impl._ranks[0]
        ctx.impl_state.credits_outstanding += 2
        with pytest.raises(InvariantViolation) as exc:
            verify_invariants(machine)
        assert any(
            v.name == "credits_outstanding" for v in exc.value.violations
        )
        assert exc.value.sim_time == machine.sim.now

    def test_buffered_bytes_drift_caught(self):
        machine, _ = run_machine("elan")
        nic = machine.nics[0]
        nic.buffered_bytes += 64  # phantom unexpected-buffer bytes
        violations = check_invariants(machine)
        assert any(v.name == "buffered_bytes" for v in violations)


class TestKernelResidue:
    def test_held_resource_slot_reported(self):
        sim = Simulator()
        res = FifoResource(sim, name="leaky")

        def holder():
            yield res.request()
            # never released

        sim.spawn(holder(), name="h")
        sim.run_all()
        violations = check_kernel(sim)
        assert any(
            v.name == "resource_released"
            and v.details["resource"] == "leaky"
            for v in violations
        )

    def test_undelivered_store_item_reported(self):
        sim = Simulator()
        store = Store(sim, name="orphan")

        def producer():
            store.put("lost")
            yield sim.timeout(0.0)

        sim.spawn(producer(), name="p")
        sim.run_all()
        violations = check_kernel(sim)
        assert any(
            v.name == "store_drained" and v.details["store"] == "orphan"
            for v in violations
        )

    def test_blocked_getter_is_allowed(self):
        sim = Simulator()
        store = Store(sim, name="service")

        def daemon():
            while True:
                yield store.get()

        def worker():
            yield sim.timeout(1.0)

        sim.spawn(daemon(), name="d", daemon=True)
        sim.spawn(worker(), name="w")
        sim.run_all()
        assert check_kernel(sim) == []


class TestLifecycleResidue:
    def test_unfinished_span_reported(self):
        sim = Simulator(telemetry=Telemetry(lifecycle=True))
        span = sim.telemetry.lifecycle.start(
            kind="send", owner=0, peer=1, tag=0, size=128,
            proto="eager", now=0.0,
        )
        violations = check_lifecycle(sim)
        (violation,) = violations
        assert violation.name == "spans_finished"
        assert violation.details["unfinished"] == 1
        span.finish(1.0)
        assert check_lifecycle(sim) == []


class TestResultsUnchanged:
    """Acceptance: sanitizer + invariant checks never perturb results."""

    @pytest.mark.parametrize("network", ["ib", "elan"])
    def test_reports_byte_identical(self, network):
        def fingerprint(sanitizer, check):
            machine = Machine(network, 2, seed=42, sanitizer=sanitizer)
            result = machine.run(
                pingpong_program(16384, 4, warmup=1),
                check_invariants=check,
            )
            return json.dumps(
                {
                    "elapsed_us": result.elapsed_us,
                    "rank_spans": result.rank_spans,
                    "values": result.values,
                },
                sort_keys=True,
            )

        assert fingerprint(False, False) == fingerprint(True, True)
