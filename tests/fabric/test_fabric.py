"""Unit tests for the crossbar and two-level fat-tree fabrics."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.sim import Simulator, transfer
from repro.topology import CrossbarTopology, FabricSpec, FatTreeTopology

SPEC = FabricSpec(link_bandwidth=1000.0, cable_latency=0.1, switch_latency=0.2, mtu=2048)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FabricSpec(link_bandwidth=0, cable_latency=0, switch_latency=0, mtu=2048)
    with pytest.raises(ConfigurationError):
        FabricSpec(link_bandwidth=1, cable_latency=0, switch_latency=0, mtu=16)
    with pytest.raises(ConfigurationError):
        FabricSpec(link_bandwidth=1, cable_latency=-1, switch_latency=0, mtu=2048)


def test_crossbar_loopback_has_no_wire_stages():
    sim = Simulator()
    f = CrossbarTopology(sim, 4, SPEC)
    assert f.wire_stages(2, 2) == []
    assert f.path_latency(2, 2) == 0.0


def test_crossbar_distinct_nodes_two_stages():
    sim = Simulator()
    f = CrossbarTopology(sim, 4, SPEC)
    stages = f.wire_stages(0, 3)
    assert len(stages) == 2
    assert stages[0].resource is f.uplinks[0]
    assert stages[1].resource is f.downlinks[3]


def test_crossbar_path_latency():
    sim = Simulator()
    f = CrossbarTopology(sim, 4, SPEC)
    assert f.path_latency(0, 1) == pytest.approx(0.4)  # 2 cables + 1 switch


def test_crossbar_rejects_out_of_range():
    sim = Simulator()
    f = CrossbarTopology(sim, 4, SPEC)
    with pytest.raises(NetworkError):
        f.wire_stages(0, 4)
    with pytest.raises(NetworkError):
        f.wire_stages(-1, 0)


def test_output_port_contention():
    """Two senders to one destination serialize on its downlink."""
    sim = Simulator()
    f = CrossbarTopology(sim, 3, SPEC)
    ends = []

    def send(src):
        end = yield from transfer(sim, f.wire_stages(src, 2), 100_000)
        ends.append(end)

    sim.spawn(send(0))
    sim.spawn(send(1))
    sim.run()
    # Each message takes 100us of downlink serialization: the second must
    # finish ~100us after the first.
    assert max(ends) - min(ends) >= 90.0


def test_distinct_destinations_run_parallel():
    sim = Simulator()
    f = CrossbarTopology(sim, 4, SPEC)
    ends = []

    def send(src, dst):
        end = yield from transfer(sim, f.wire_stages(src, dst), 100_000)
        ends.append(end)

    sim.spawn(send(0, 2))
    sim.spawn(send(1, 3))
    sim.run()
    assert max(ends) - min(ends) < 1.0


def two_level(sim, n_nodes, radix):
    return FatTreeTopology(sim, n_nodes, SPEC, radix=radix, levels=2)


def test_two_level_same_leaf_is_single_hop():
    sim = Simulator()
    f = two_level(sim, 32, radix=8)  # 4 nodes per leaf
    assert f.leaf_of(0) == f.leaf_of(3)
    assert len(f.wire_stages(0, 3)) == 2
    assert f.path_latency(0, 3) == pytest.approx(0.4)


def test_two_level_cross_leaf_is_three_hops():
    sim = Simulator()
    f = two_level(sim, 32, radix=8)
    stages = f.wire_stages(0, 10)
    assert len(stages) == 4
    assert f.path_latency(0, 10) == pytest.approx(4 * 0.1 + 3 * 0.2)
    assert f.hops == 3


def test_two_level_radix_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        two_level(sim, 8, radix=3)
    with pytest.raises(ConfigurationError):
        two_level(sim, 8, radix=2)


def test_routes_deterministic_property():
    sim = Simulator()
    f = two_level(sim, 64, radix=8)
    pairs = [(a, b) for a in range(0, 64, 7) for b in range(0, 64, 11) if a != b]
    for src, dst in pairs:
        f.wire_stages(src, dst)
    # Compares every cached route with a fresh one, and repeat lookups.
    assert f.check_invariants() == []


def test_crossbar_needs_a_node():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        CrossbarTopology(sim, 0, SPEC)
