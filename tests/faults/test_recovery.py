"""The two recovery protocols under injected faults.

InfiniBand's reliable connection retransmits end-to-end and gives up
after its (3-bit) retry counter — a visible failure.  Elan-4's
link-level CRC retry is pure latency: MPI completes at every BER the
sweep throws at it.  Registration faults exist only on the IB side,
because only IB has a host registration path to fail.
"""

import pytest

from repro import FaultPlan, Machine, root_fault
from repro.errors import (
    RegistrationError,
    RetryExhaustedError,
    SimulationError,
)
from repro.microbench.pingpong import pingpong_program

pytestmark = pytest.mark.faults


def run(network, plan, size=8192, reps=10, seed=0):
    machine = Machine(network, n_nodes=2, seed=seed, faults=plan)
    result = machine.run(pingpong_program(size, reps))
    return result, machine


def pristine_latency(network, size=8192, reps=10):
    result, _ = run(network, None, size=size, reps=reps)
    return result.values[0]


def test_ib_moderate_ber_costs_latency_not_correctness():
    plan = FaultPlan(ber=1e-7)
    result, machine = run("ib", plan)
    assert result.values[0] > pristine_latency("ib")
    stats = machine.sim.faults.stats()
    assert stats["ib_retransmits"] >= 1
    assert stats["ib_timeout_us"] > 0.0


def test_ib_heavy_ber_exhausts_retry_budget():
    plan = FaultPlan(ber=1e-4, ib_retry_count=4)
    with pytest.raises(SimulationError) as ei:
        run("ib", plan)
    cause = root_fault(ei.value, RetryExhaustedError)
    assert cause is not None
    assert cause.attempts == plan.ib_retry_count + 1
    assert cause.link


def test_ib_retry_count_zero_fails_on_first_corruption():
    plan = FaultPlan(ber=1e-4, ib_retry_count=0)
    with pytest.raises(SimulationError) as ei:
        run("ib", plan)
    cause = root_fault(ei.value, RetryExhaustedError)
    assert cause is not None and cause.attempts == 1


def test_elan_survives_heavy_ber_with_latency_only():
    plan = FaultPlan(ber=1e-4)
    result, machine = run("elan", plan)
    assert result.values[0] > pristine_latency("elan")
    stats = machine.sim.faults.stats()
    assert stats["elan_link_retries"] >= 1


def test_elan_degrades_monotonically_in_expectation():
    latencies = [
        run("elan", FaultPlan(ber=ber) if ber else None)[0].values[0]
        for ber in (0.0, 1e-6, 1e-4)
    ]
    assert latencies[0] <= latencies[1] <= latencies[2]


@pytest.mark.parametrize("network", ["ib", "elan"])
def test_nic_stalls_slow_both_technologies(network):
    plan = FaultPlan(nic_stall_rate=0.5, nic_stall_us=50.0)
    result, machine = run(network, plan)
    assert machine.sim.faults.stats()["nic_stalls"] > 0
    assert result.values[0] > pristine_latency(network)


#: Two ping-pong buffers of this size overflow the 6 MiB pin-down cache
#: (the paper's 4 MB thrash point), so every exchange re-registers.
THRASH = 4 << 20


def test_registration_faults_slow_the_ib_rendezvous_path():
    # At the thrash point every exchange misses the pin-down cache, so
    # transient registration failures burn host time inside the timed
    # region (smaller messages only fault during the untimed warmup,
    # then hit the cache forever).
    plan = FaultPlan(reg_failure_rate=0.3, reg_retry_budget=8)
    result, machine = run("ib", plan, size=THRASH, reps=4)
    stats = machine.sim.faults.stats()
    assert stats["reg_faults"] > 0
    assert result.values[0] > pristine_latency("ib", size=THRASH, reps=4)
    caches = [n.reg_cache(r) for r, n in enumerate(machine.nics)]
    assert sum(c.transient_failures for c in caches) == stats["reg_faults"]


def test_registration_budget_exhaustion_raises():
    plan = FaultPlan(reg_failure_rate=0.9, reg_retry_budget=2)
    with pytest.raises(SimulationError) as ei:
        run("ib", plan, size=1 << 20, reps=5)
    assert root_fault(ei.value, RegistrationError) is not None


def test_registration_faults_never_touch_elan():
    plan = FaultPlan(reg_failure_rate=0.9, reg_retry_budget=2)
    result, machine = run("elan", plan, size=1 << 20, reps=5)
    assert result.values[0] == pristine_latency("elan", size=1 << 20, reps=5)
    assert machine.sim.faults.stats()["reg_faults"] == 0
