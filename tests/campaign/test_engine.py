"""Engine tests: determinism, cache behaviour, resume, error isolation."""

import json
import time

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    RunSpec,
    execute_run,
)

#: Cheap but real sweep: 2 networks x 2 node counts x 2 seeds of a
#: 2-step LAMMPS LJS run.
CAMPAIGN = CampaignSpec(
    name="engine-test",
    base={
        "app": "lammps",
        "app_args.config": "ljs",
        "app_args.steps": 2,
        "app_args.thermo_every": 1,
    },
    grid={"network": ["ib", "elan"], "nodes": [1, 2]},
    repetitions=2,
    seed_base=100,
)


def payload(records):
    """The deterministic part of records (wall time varies)."""
    return json.dumps(
        [
            {k: v for k, v in r.items() if k not in ("wall_s", "reused")}
            for r in records
        ],
        sort_keys=True,
    )


def test_parallel_is_bit_identical_to_serial(tmp_path):
    serial = CampaignEngine(root=tmp_path / "s", workers=1).run(CAMPAIGN)
    parallel = CampaignEngine(root=tmp_path / "p", workers=4).run(CAMPAIGN)
    assert serial.misses == parallel.misses == serial.total
    assert payload(serial.records) == payload(parallel.records)


def test_cache_miss_then_hit(tmp_path):
    engine = CampaignEngine(root=tmp_path, workers=1)
    cold = engine.run(CAMPAIGN)
    assert cold.hits == 0
    assert cold.misses == cold.total
    assert cold.hit_rate == 0.0
    warm = CampaignEngine(root=tmp_path, workers=1).run(CAMPAIGN)
    assert warm.hit_rate == 1.0
    assert warm.misses == 0
    assert warm.sources["cache"] == warm.total
    assert payload(cold.records) == payload(warm.records)


def test_warm_rerun_is_at_least_5x_faster(tmp_path):
    engine = CampaignEngine(root=tmp_path, workers=4)
    t0 = time.perf_counter()
    cold = engine.run(CAMPAIGN)
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = CampaignEngine(root=tmp_path, workers=4).run(CAMPAIGN)
    warm_wall = time.perf_counter() - t0
    assert warm.hit_rate == 1.0
    assert warm_wall * 5 < cold_wall, (cold_wall, warm_wall)
    assert payload(cold.records) == payload(warm.records)


def test_partial_campaign_resumes_from_cache(tmp_path):
    """Points completed before an interruption are cache hits on restart."""
    specs = CAMPAIGN.expand()[:6]
    done = CampaignEngine(root=tmp_path, workers=1).run_specs(specs[:3])
    assert done.misses == 3  # "interrupted" after three runs
    result = CampaignEngine(root=tmp_path, workers=1).run_specs(specs)
    assert result.sources == {"cache": 3, "run": 3}
    assert result.hits == 3 and result.misses == 3
    # The full run agrees with a from-scratch serial execution.
    scratch = CampaignEngine(root=tmp_path / "scratch", workers=1)
    assert payload(result.records) == payload(scratch.run_specs(specs).records)


def test_truncated_cache_file_reruns_that_point(tmp_path):
    engine = CampaignEngine(root=tmp_path, workers=1)
    specs = CAMPAIGN.expand()[:2]
    engine.run_specs(specs)
    path = engine.cache.path(specs[1].key)
    text = path.read_text()
    path.write_text(text[:23])  # damaged outside the atomic write
    result = CampaignEngine(root=tmp_path, workers=1).run_specs(specs)
    assert result.sources == {"cache": 1, "run": 1}
    # The re-run rewrote the file: the record is whole again.
    rewritten = engine.cache.get(specs[1].key)
    assert rewritten == result.records[1]
    assert payload([rewritten]) == payload([json.loads(text)])


def test_force_reruns_everything(tmp_path):
    engine = CampaignEngine(root=tmp_path, workers=1)
    engine.run(CAMPAIGN)
    forced = CampaignEngine(root=tmp_path, workers=1).run(CAMPAIGN, force=True)
    assert forced.hits == 0
    assert forced.misses == forced.total


def test_duplicate_points_execute_once(tmp_path):
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 8),))
    engine = CampaignEngine(root=tmp_path, workers=1)
    result = engine.run_specs([spec, spec, spec])
    assert result.total == 3
    assert result.misses == 1
    assert len({json.dumps(r, sort_keys=True) for r in result.records}) == 1


def test_error_isolation(tmp_path):
    good = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 8),))
    # One rank can't ping-pong: the run fails, the campaign survives.
    bad = RunSpec(app="pingpong", network="ib", nodes=1,
                  app_args=(("size", 8),))
    engine = CampaignEngine(root=tmp_path, workers=1)
    result = engine.run_specs([good, bad])
    assert result.errors == 1
    assert result.records[0]["status"] == "ok"
    assert result.records[1]["status"] == "error"
    assert "error" in result.records[1]
    # Failures are journaled but never cached, so they retry next time.
    retry = CampaignEngine(root=tmp_path, workers=1).run_specs([good, bad])
    assert retry.hits == 1
    assert retry.misses == 1


def test_trace_summary_lands_in_record(tmp_path):
    spec = RunSpec(app="pingpong", network="elan", nodes=2,
                   app_args=(("size", 1024),))
    record = execute_run(spec, trace=True)
    assert record["status"] == "ok"
    summary = record["trace_summary"]
    assert summary["total"] >= 0
    assert "by_category" in summary and "dropped" in summary


def test_execute_run_returns_error_record_for_unknown_app():
    record = execute_run(RunSpec(app="doom", network="ib", nodes=2))
    assert record["status"] == "error"
    assert "unknown app" in record["error"]


def test_progress_echo_lines(tmp_path):
    lines = []
    engine = CampaignEngine(root=tmp_path, workers=1, echo=lines.append)
    engine.run_specs(CAMPAIGN.expand()[:2])
    assert len(lines) == 2
    assert all(line.startswith("ok") for line in lines)
    lines.clear()
    CampaignEngine(
        root=tmp_path, workers=1, echo=lines.append
    ).run_specs(CAMPAIGN.expand()[:2])
    assert all(line.startswith("hit") for line in lines)


def test_negative_workers_rejected(tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        CampaignEngine(root=tmp_path, workers=-1)
