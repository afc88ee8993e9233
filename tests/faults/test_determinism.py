"""Fault determinism: seeded streams, bit-identical replays, no leakage.

The guarantees under test are the ones the campaign cache and the golden
results depend on:

* same seed + same plan ⇒ bit-identical runs (times, stats, traces);
* a disabled plan is indistinguishable from no plan at all;
* fault streams are independent of every pre-existing stream, so
  enabling faults cannot perturb no-fault randomness.
"""

import pytest

from repro import FaultPlan, Machine
from repro.microbench.pingpong import pingpong_program
from repro.sim import Simulator
from repro.telemetry import Telemetry

pytestmark = pytest.mark.faults

PLAN = FaultPlan(ber=1e-6, nic_stall_rate=0.02, nic_stall_us=10.0)


def run_once(network, plan, seed=0, trace=False):
    telemetry = Telemetry(metrics=False, trace=True) if trace else None
    machine = Machine(
        network, n_nodes=2, seed=seed, faults=plan, telemetry=telemetry
    )
    result = machine.run(pingpong_program(4096, 10))
    stats = machine.sim.faults.stats() if machine.sim.faults else None
    records = list(machine.sim.trace.records) if trace else None
    return result, stats, records


@pytest.mark.parametrize("network", ["ib", "elan"])
def test_same_seed_same_plan_bit_identical(network):
    a_result, a_stats, a_trace = run_once(network, PLAN, trace=True)
    b_result, b_stats, b_trace = run_once(network, PLAN, trace=True)
    assert a_result.values == b_result.values
    assert a_result.elapsed_us == b_result.elapsed_us
    assert a_result.rank_spans == b_result.rank_spans
    assert a_stats == b_stats
    assert a_trace == b_trace


@pytest.mark.parametrize("network", ["ib", "elan"])
def test_faults_actually_fired(network):
    _, stats, _ = run_once(network, PLAN)
    assert stats["corrupted_packets"] > 0 or stats["nic_stalls"] > 0


@pytest.mark.parametrize("network", ["ib", "elan"])
def test_disabled_plan_identical_to_no_plan(network):
    bare, bare_stats, bare_trace = run_once(network, None, trace=True)
    off, off_stats, off_trace = run_once(network, FaultPlan(), trace=True)
    assert off_stats is None, "disabled plan must not attach an injector"
    assert bare.values == off.values
    assert bare.elapsed_us == off.elapsed_us
    assert bare_trace == off_trace


@pytest.mark.parametrize("network", ["ib", "elan"])
def test_different_seeds_draw_different_faults(network):
    _, a, _ = run_once(network, PLAN, seed=0)
    _, b, _ = run_once(network, PLAN, seed=1)
    assert a != b


def test_fault_streams_do_not_perturb_existing_streams():
    """Draws on a ``fault.*`` stream leave every other stream untouched."""
    quiet = Simulator(seed=42)
    noisy = Simulator(seed=42)
    # The noisy simulator burns fault draws first, like an injector would.
    noisy.rng.stream("fault.ber.up0").random(1000)
    noisy.rng.stream("fault.stall.hca1").random(1000)
    for name in ("jitter.cpu0", "beff.pattern", "anything.else"):
        expect = quiet.rng.stream(name).random(8)
        got = noisy.rng.stream(name).random(8)
        assert (expect == got).all()
