"""Machine-level topology integration: equivalence, determinism, faults."""

import pytest

from repro import FaultPlan, Machine
from repro.campaign import RunSpec
from repro.errors import ConfigurationError
from repro.microbench.pingpong import pingpong_program
from repro.topology import TopologySpec

pytestmark = pytest.mark.topology

PINGPONG_ARGS = (4096, 10)


def far_exchange(size, repetitions):
    """Bounce between rank 0 and the last rank (longest route)."""

    def program(mpi):
        last = mpi.size - 1
        if mpi.rank not in (0, last):
            return None
        peer = last if mpi.rank == 0 else 0
        sbuf, rbuf = ("fx-s", mpi.rank), ("fx-r", mpi.rank)
        t0 = mpi.now
        for _ in range(repetitions):
            if mpi.rank == 0:
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
            else:
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
        return (mpi.now - t0) / (2.0 * repetitions) if mpi.rank == 0 else None

    return program


def run_result(network, nodes, seed=3, topology=None, program=None, **kwargs):
    machine = Machine(network, nodes, seed=seed, topology=topology, **kwargs)
    result = machine.run(
        program or pingpong_program(*PINGPONG_ARGS), check_invariants=True
    )
    return machine, result


def payload(result):
    return (result.elapsed_us, tuple(result.values), tuple(result.rank_spans))


@pytest.mark.parametrize("network", ["ib", "elan"])
def test_one_level_fat_tree_is_bit_identical_to_crossbar(network):
    _, crossbar = run_result(network, 8)
    _, fattree = run_result(
        network, 8, topology=TopologySpec(kind="fattree", radix=16, levels=1)
    )
    assert payload(fattree) == payload(crossbar)


@pytest.mark.parametrize(
    "topology",
    [
        TopologySpec(kind="fattree", radix=4, levels=2),
        TopologySpec(kind="fattree", radix=4, levels=3),
        TopologySpec(kind="torus", dims="2x2x2"),
    ],
    ids=["fattree-2l", "fattree-3l", "torus"],
)
@pytest.mark.parametrize("network", ["ib", "elan"])
def test_same_seed_is_bit_identical(network, topology):
    program = far_exchange(4096, 8)
    _, first = run_result(network, 8, topology=topology, program=program)
    _, second = run_result(network, 8, topology=topology, program=program)
    assert payload(first) == payload(second)


@pytest.mark.parametrize(
    "topology",
    [
        TopologySpec(kind="fattree", radix=4, levels=3),
        TopologySpec(kind="torus", dims="2x2x2"),
    ],
    ids=["fattree-3l", "torus"],
)
def test_eight_rank_smoke_is_sanitizer_clean(topology):
    machine, _ = run_result(
        "elan", 8, topology=topology, program=far_exchange(4096, 4),
        sanitizer=True,
    )
    assert machine.sanitizer.clean, machine.sanitizer.findings


def test_deeper_trees_cost_more_latency():
    program = far_exchange(4096, 8)
    results = {}
    for levels in (1, 2, 3):
        radix = {1: 8, 2: 4, 3: 4}[levels]
        _, res = run_result(
            "elan", 8, program=program,
            topology=TopologySpec(kind="fattree", radix=radix, levels=levels),
        )
        results[levels] = res.values[0]
    assert results[1] < results[2] < results[3]


def test_link_occupancy_appears_in_telemetry():
    from repro.telemetry import Telemetry

    machine = Machine(
        "elan", 8, seed=3,
        topology=TopologySpec(kind="fattree", radix=4, levels=2),
        telemetry=Telemetry(metrics=True),
    )
    machine.run(far_exchange(4096, 4))
    link_metrics = [
        k for k in machine.metrics() if k.startswith("resource.link.isl:")
    ]
    assert link_metrics, "expected resource.link.* occupancy metrics"


def test_topology_and_fabric_radix_are_mutually_exclusive():
    with pytest.raises(ConfigurationError, match="not both"):
        RunSpec(
            app="pingpong", network="elan", nodes=8, fabric_radix=4,
            topology=(("kind", "crossbar"),),
        )


def test_machine_records_its_topology_spec():
    m = Machine("elan", 4)
    assert m.topology == TopologySpec()
    spec = RunSpec(app="pingpong", network="elan", nodes=8, fabric_radix=4)
    m = Machine("elan", 8, topology=spec.topology_spec)
    assert m.topology == TopologySpec(kind="fattree", radix=4, levels=2)


class TestLinkTargetedFaults:
    """fault.link_ber degrades one named ISL and nothing else."""

    TOPO = TopologySpec(kind="fattree", radix=4, levels=2)

    def _run(self, faults=None):
        # 8 nodes, radix 4: m=2 hosts/leaf, 4 leaves, 2 spines.  Rank 0
        # (leaf 0) to rank 7 (leaf 3) crosses spine 7 % 2 = 1 via the
        # ISL stage named "isl:l0>s1".
        machine = Machine("elan", 8, seed=3, topology=self.TOPO, faults=faults)
        result = machine.run(far_exchange(8192, 12))
        return machine, result.values[0]

    def test_targeted_isl_injects_and_slows(self):
        _, pristine = self._run()
        machine, degraded = self._run(
            FaultPlan(link_ber=2e-5, link="isl:l0>s1")
        )
        assert machine.sim.faults.corrupted_packets > 0
        assert degraded > pristine

    def test_off_path_link_is_bit_identical_to_pristine(self):
        _, pristine = self._run()
        machine, untouched = self._run(
            FaultPlan(link_ber=2e-5, link="isl:l1>s0")
        )
        assert machine.sim.faults.corrupted_packets == 0
        assert untouched == pristine

    def test_prefix_matches_every_isl(self):
        machine, _ = self._run(FaultPlan(link_ber=2e-5, link="isl:"))
        assert machine.sim.faults.corrupted_packets > 0
