"""Fat-tree routing units: level selection, d-mod-k paths, cost agreement."""

import pytest

from repro.cost import fat_tree, max_fat_tree_nodes
from repro.errors import ConfigurationError
from repro.fabric import FabricSpec, TwoLevelFabric
from repro.sim import Simulator
from repro.topology import FatTreeTopology

pytestmark = pytest.mark.topology

SPEC = FabricSpec(
    link_bandwidth=1000.0, cable_latency=0.1, switch_latency=0.2, mtu=2048
)


def build(n, radix, levels=0):
    return FatTreeTopology(Simulator(), n, SPEC, radix=radix, levels=levels)


def test_auto_level_selection():
    assert build(8, 8).levels == 1
    assert build(9, 8).levels == 2
    assert build(32, 8).levels == 2
    assert build(33, 8).levels == 3
    assert build(128, 8).levels == 3


def test_switch_counts_agree_with_cost_model():
    for n, radix, levels in [(8, 8, 1), (32, 8, 2), (100, 8, 3), (512, 16, 3)]:
        topo = build(n, radix, levels)
        assert topo.switch_count == fat_tree(n, radix, levels)
        assert n <= max_fat_tree_nodes(radix, levels)


def test_level1_routes_exactly_like_a_crossbar():
    topo = build(8, 16, levels=1)
    stages = topo.wire_stages(2, 5)
    assert [s.name for s in stages] == ["up2", "down5"]
    assert stages[0].resource is topo.uplinks[2]
    assert stages[1].resource is topo.downlinks[5]


def test_level2_route_is_d_mod_k():
    topo = build(16, 8, levels=2)  # m=4 hosts per leaf, 2 spines
    assert topo.n_leaves == 4 and topo.n_spines == 2
    # Same leaf: two stages, no ISL.
    assert [s.name for s in topo.wire_stages(0, 3)] == ["up0", "down3"]
    # Cross leaf: up, two ISLs through spine dst % n_spines, down.
    names = [s.name for s in topo.wire_stages(0, 13)]
    assert names == ["up0", "isl:l0>s1", "isl:s1>l3", "down13"]
    # All destinations in one leaf share the spine choice pattern.
    assert [s.name for s in topo.wire_stages(0, 12)][1] == "isl:l0>s0"


def test_level2_oversubscribed_keeps_legacy_arithmetic():
    # 64 nodes on radix-8 switches exceeds full-bisection capacity but
    # stays buildable as an oversubscribed Clos (the TwoLevelFabric pin).
    topo = build(64, 8, levels=2)
    assert topo.n_leaves == 16 and topo.n_spines == 8
    legacy = TwoLevelFabric(Simulator(), 64, SPEC, radix=8)
    assert legacy.n_leaves == 16 and legacy.n_spines == 8
    assert isinstance(legacy, FatTreeTopology)


def test_level3_routes():
    topo = build(128, 8, levels=3)  # m=4: pods of 4 leaves, 16 cores
    assert topo.n_pods == 8 and topo.n_cores == 16
    # Same pod, different leaf: through one aggregation switch.
    names = [s.name for s in topo.wire_stages(0, 12)]
    assert names[0] == "up0" and names[-1] == "down12"
    assert len(names) == 4
    assert all(n.startswith("isl:") for n in names[1:-1])
    # Cross pod: up, leaf->agg, agg->core, core->agg', agg'->leaf', down.
    names = [s.name for s in topo.wire_stages(0, 100)]
    assert len(names) == 6
    core_hops = [n for n in names if ">c" in n or ":c" in n]
    assert len(core_hops) == 2
    # Path latency: every hop pays a cable, all but the last a crossing.
    assert topo.path_latency(0, 100) == pytest.approx(6 * 0.1 + 5 * 0.2)


def test_routes_are_pure_functions_of_src_dst():
    topo = build(128, 8, levels=3)
    for pair in [(0, 100), (5, 77), (127, 0)]:
        first = [s.resource for s in topo.wire_stages(*pair)]
        second = [s.resource for s in topo.wire_stages(*pair)]
        assert first == second


def test_wire_stages_caches_routes_and_audits_the_cache():
    topo = build(32, 8, levels=2)
    route = topo.wire_stages(0, 13)
    assert topo.wire_stages(0, 13) is route
    assert topo.check_invariants() == []
    # A stale cached route (here: one link swapped) is caught.
    topo._routes[(0, 13)] = [route[0], route[2], route[1], route[3]]
    names = [p["name"] for p in topo.check_invariants()]
    assert names == ["route_cache_fresh"]


def test_route_cache_is_bounded(monkeypatch):
    from repro.topology import base

    monkeypatch.setattr(base, "ROUTE_CACHE_LIMIT", 2)
    topo = build(32, 8, levels=2)
    for dst in (13, 14, 15):
        topo.wire_stages(0, dst)
    assert sorted(topo._routes) == [(0, 13), (0, 14)]
    assert [s.resource for s in topo.wire_stages(0, 15)] == [
        s.resource for s in topo._route(0, 15)
    ]


def test_isl_links_register_lazily():
    topo = build(16, 8, levels=2)
    assert not any(name.startswith("link.") for name in topo.links)
    topo.wire_stages(0, 13)
    assert "link.isl:l0>s1" in topo.links
    assert "link.isl:s1>l3" in topo.links


def test_capacity_and_radix_validation():
    with pytest.raises(ConfigurationError):
        build(9, 8, levels=1)  # one chassis has 8 ports
    with pytest.raises(ConfigurationError):
        build(200, 8, levels=3)  # 3-level radix-8 tops out at 128
    with pytest.raises(ConfigurationError):
        build(8, 5)  # odd radix
    with pytest.raises(ConfigurationError):
        build(8, 2)  # too small
