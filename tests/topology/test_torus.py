"""Torus units: factorization, dimension-ordered routing, per-dim latency."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.topology import FabricSpec, TorusTopology
from repro.topology.torus import auto_dims

pytestmark = pytest.mark.topology

SPEC = FabricSpec(
    link_bandwidth=1000.0, cable_latency=0.1, switch_latency=0.2, mtu=2048
)


def build(n, dims=None, dim_latency=None):
    return TorusTopology(Simulator(), n, SPEC, dims=dims, dim_latency=dim_latency)


def test_auto_dims_is_near_cubic():
    assert auto_dims(8) == (2, 2, 2)
    assert auto_dims(64) == (4, 4, 4)
    assert auto_dims(1024) == (8, 8, 16)
    assert auto_dims(7) == (1, 1, 7)  # primes degrade to a ring
    assert auto_dims(1) == (1, 1, 1)


def test_dims_must_match_node_count():
    with pytest.raises(ConfigurationError):
        build(16, dims=(2, 2, 2))
    with pytest.raises(ConfigurationError):
        build(8, dims=(2, 4))
    with pytest.raises(ConfigurationError):
        build(8, dims=(2, 2, 2), dim_latency=(0.1, 0.1))


def test_coords_round_trip():
    topo = build(24, dims=(2, 3, 4))
    for node in range(24):
        assert topo.node_at(*topo.coords(node)) == node


def test_neighbor_exchange_is_one_hop_no_router():
    topo = build(8, dims=(2, 2, 2))
    stages = topo.wire_stages(0, 1)  # +x neighbor
    assert len(stages) == 1
    assert stages[0].name == "torus.0.0.0.x+"
    # A single hop lands in the destination NIC: no router crossing.
    assert stages[0].latency_out == pytest.approx(0.1)
    assert stages[0].switch_latency == 0.0


def test_dimension_ordered_shortest_rings():
    topo = build(64, dims=(4, 4, 4))
    # 0 -> (1,2,3): one x+ hop, two y hops (tie goes forward), z via
    # the shorter -1 direction (3 forward vs 1 backward).
    names = [s.name for s in topo.wire_stages(0, topo.node_at(1, 2, 3))]
    axes = [n.rsplit(".", 1)[1] for n in names]
    assert axes == ["x+", "y+", "y+", "z-"]
    # Dimension order is x, then y, then z — never interleaved.
    assert axes == sorted(axes, key=lambda a: "xyz".index(a[0]))


def test_per_dimension_latency():
    topo = build(64, dims=(4, 4, 4), dim_latency=(0.1, 0.1, 0.5))
    # Two z-hops: cables 2*0.5, one intermediate router crossing.
    assert topo.path_latency(0, topo.node_at(0, 0, 2)) == pytest.approx(
        2 * 0.5 + 0.2
    )
    # Two x-hops with the cheap cable.
    assert topo.path_latency(0, topo.node_at(2, 0, 0)) == pytest.approx(
        2 * 0.1 + 0.2
    )


def test_diameter_bound_and_invariants():
    topo = build(64, dims=(4, 4, 4))
    assert topo.hops == 6
    worst = topo.wire_stages(0, topo.node_at(2, 2, 2))
    assert len(worst) == 6
    for src in range(0, 64, 7):
        for dst in range(0, 64, 5):
            if src != dst:
                topo.wire_stages(src, dst)
    assert topo.check_invariants() == []


def test_links_register_lazily_per_direction():
    topo = build(8, dims=(2, 2, 2))
    assert topo.links == {}
    topo.wire_stages(0, 1)
    assert set(topo.links) == {"link.torus.0.0.0.x+"}
