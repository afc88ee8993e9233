"""Studies and figures through the campaign engine."""

import pytest

from repro.campaign import CampaignEngine, CampaignSpec
from repro.core import ScalingStudy
from repro.errors import ConfigurationError

STUDY_KWARGS = dict(
    node_counts=[1, 2],
    networks=("ib", "elan"),
    ppns=(1,),
    repetitions=2,
    mode="scaled",
    seed_base=1000,
)

QUICK_LJS = {"config": "ljs", "steps": 2, "thermo_every": 1}


def declarative_study():
    return ScalingStudy(app="lammps", app_args=QUICK_LJS, **STUDY_KWARGS)


def curves_of(result):
    return {
        cell: [(p.nodes, p.stats.values) for p in points]
        for cell, points in result.curves.items()
    }


def test_engine_study_matches_serial_study(tmp_path):
    serial = declarative_study().run()
    engine = CampaignEngine(root=tmp_path, workers=4)
    via_engine = declarative_study().run(engine=engine)
    assert curves_of(serial) == curves_of(via_engine)
    assert via_engine.mode == serial.mode


def test_second_engine_run_is_all_cache_hits(tmp_path):
    engine = CampaignEngine(root=tmp_path, workers=1)
    declarative_study().run(engine=engine)
    echoes = []
    warm_engine = CampaignEngine(root=tmp_path, workers=1, echo=echoes.append)
    declarative_study().run(engine=warm_engine)
    assert echoes and all(line.startswith("hit") for line in echoes)


def test_progress_messages_match_serial(tmp_path):
    serial_msgs, engine_msgs = [], []
    declarative_study().run(progress=serial_msgs.append)
    engine = CampaignEngine(root=tmp_path, workers=1)
    declarative_study().run(progress=engine_msgs.append, engine=engine)
    assert serial_msgs == engine_msgs
    assert len(serial_msgs) == 4  # one per (network, ppn, nodes) cell


def test_failed_run_surfaces_as_error(tmp_path):
    study = ScalingStudy(
        app="nonexistent-app",
        node_counts=[1],
        networks=("ib",),
        repetitions=1,
    )
    engine = CampaignEngine(root=tmp_path, workers=1)
    with pytest.raises(ConfigurationError, match="campaign runs failed"):
        study.run(engine=engine)


def test_campaign_file_warms_the_study(tmp_path):
    """``repro-campaign run`` of ``study.campaign().to_dict()`` leaves a
    root that answers every run of ``study.run(engine=)``."""
    campaign = CampaignSpec.from_dict(declarative_study().campaign("ci").to_dict())
    CampaignEngine(root=tmp_path, workers=1).run(campaign)
    echoes = []
    warm_engine = CampaignEngine(root=tmp_path, workers=1, echo=echoes.append)
    warm = declarative_study().run(engine=warm_engine)
    assert len(echoes) == campaign.run_count()
    assert all(line.startswith("hit") for line in echoes)
    assert curves_of(warm) == curves_of(declarative_study().run())


def test_figure_through_engine_matches_serial(tmp_path):
    from repro.core.figures import fig6_nas_cg

    serial = fig6_nas_cg(quick=True)
    engine = CampaignEngine(root=tmp_path, workers=4)
    via_engine = fig6_nas_cg(quick=True, engine=engine)
    assert [(s.label, s.x, s.y) for s in serial.series] == [
        (s.label, s.x, s.y) for s in via_engine.series
    ]
