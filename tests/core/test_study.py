"""Tests for the scaling-study orchestration."""

import json

import pytest

from repro.campaign import CampaignSpec, RunSpec
from repro.core import ScalingStudy
from repro.errors import ConfigurationError

QUICK_LJS = dict(
    app="lammps", app_args={"config": "ljs", "steps": 2, "thermo_every": 1}
)


def test_study_validation():
    with pytest.raises(ConfigurationError):
        ScalingStudy(**QUICK_LJS, node_counts=[])
    with pytest.raises(ConfigurationError):
        ScalingStudy(**QUICK_LJS, node_counts=[1], mode="weird")
    with pytest.raises(ConfigurationError):
        ScalingStudy(**QUICK_LJS, node_counts=[1], repetitions=0)
    with pytest.raises(ConfigurationError, match="network"):
        ScalingStudy(**QUICK_LJS, node_counts=[1], networks=())
    with pytest.raises(ConfigurationError, match="ppn"):
        ScalingStudy(**QUICK_LJS, node_counts=[1], ppns=())


def test_campaign_seeds_and_keys():
    """The study's sweep is one campaign: every cell, seeds seed_base +
    rep, and the keys of the runs a hand-built RunSpec would have, also
    after a round trip through a campaign file."""
    study = ScalingStudy(
        **QUICK_LJS, node_counts=[2, 1], networks=("elan", "ib"),
        ppns=(1, 2), repetitions=3, seed_base=70,
    )
    campaign = study.campaign("ljs-study")
    assert campaign.name == "ljs-study"
    assert study.campaign().name == "lammps-study"
    specs = campaign.expand()
    assert sorted(
        (s.network, s.ppn, s.nodes, s.seed) for s in specs
    ) == sorted(
        (network, ppn, nodes, 70 + rep)
        for network, ppn, nodes in study.cells()
        for rep in range(3)
    )
    direct = {
        RunSpec(
            app="lammps", network=s.network, nodes=s.nodes, ppn=s.ppn,
            seed=s.seed, app_args=tuple(QUICK_LJS["app_args"].items()),
        ).key
        for s in specs
    }
    assert {s.key for s in specs} == direct
    on_file = CampaignSpec.from_dict(json.loads(json.dumps(campaign.to_dict())))
    assert [s.key for s in on_file.expand()] == [s.key for s in specs]


@pytest.fixture(scope="module")
def small_result():
    study = ScalingStudy(
        **QUICK_LJS,
        node_counts=[1, 2, 4],
        networks=("ib", "elan"),
        ppns=(1,),
        repetitions=2,
        mode="scaled",
    )
    return study.run()


def test_study_covers_all_cells(small_result):
    assert set(small_result.curves) == {("ib", 1), ("elan", 1)}
    for points in small_result.curves.values():
        assert [p.nodes for p in points] == [1, 2, 4]
        assert all(p.stats.n == 2 for p in points)


def test_study_repetitions_differ_but_slightly(small_result):
    """Seeded jitter: repetitions differ, spread stays small."""
    for points in small_result.curves.values():
        for p in points:
            if p.nodes > 1:
                assert p.stats.spread < 0.05


def test_time_series_units(small_result):
    series = small_result.time_series(unit=1e6)
    assert len(series) == 2
    for s in series:
        assert all(v < 10 for v in s.y)  # seconds, small runs


def test_efficiency_starts_at_100(small_result):
    for s in small_result.efficiency_series():
        assert s.y[0] == pytest.approx(100.0)


def test_efficiency_declines_with_nodes(small_result):
    for (net, ppn) in small_result.curves:
        pairs = small_result.efficiency(net, ppn)
        assert pairs[-1][1] <= pairs[0][1]


def test_progress_callback_invoked():
    messages = []
    study = ScalingStudy(
        **QUICK_LJS, node_counts=[1, 2], networks=("elan",), repetitions=1
    )
    study.run(progress=messages.append)
    assert len(messages) == 2
    assert "elan" in messages[0]


def test_fixed_mode_uses_process_counts():
    study = ScalingStudy(
        app="sweep3d",
        app_args={"n": 30, "iterations": 1},
        node_counts=[1, 4],
        networks=("elan",),
        repetitions=1,
        mode="fixed",
    )
    result = study.run()
    pairs = result.efficiency("elan", 1)
    # Fixed-size: 4 nodes should be several times faster, efficiency near
    # or above ~0.5 for this tiny grid.
    assert pairs[0][1] == pytest.approx(1.0)
    assert 0.2 < pairs[1][1] < 1.6
