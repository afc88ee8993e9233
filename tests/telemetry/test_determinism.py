"""Metric determinism: the property the campaign cache depends on."""

import json

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, RunSpec, execute_run
from repro.microbench.pingpong import pingpong_program
from repro.mpi import Machine
from repro.telemetry import Telemetry

pytestmark = pytest.mark.telemetry

SPEC = RunSpec(
    app="pingpong",
    network="ib",
    nodes=2,
    seed=7,
    app_args=(("repetitions", 3), ("size", 65536)),
)

CAMPAIGN = CampaignSpec(
    name="telemetry-determinism",
    base={"app": "pingpong", "nodes": 2, "app_args.repetitions": 2},
    grid={"network": ["ib", "elan"], "app_args.size": [1024, 65536]},
    repetitions=1,
    seed_base=0,
)


def test_same_seed_same_metrics_dict():
    dumps = []
    for _ in range(2):
        machine = Machine(
            "ib", 2, seed=11, telemetry=Telemetry(metrics=True)
        )
        machine.run(pingpong_program(size=65536, repetitions=3))
        dumps.append(json.dumps(machine.metrics(), sort_keys=False))
    # Bit-identical including key order (as_dict sorts on export).
    assert dumps[0] == dumps[1]


def test_execute_run_attaches_identical_metrics():
    a = execute_run(SPEC)
    b = execute_run(SPEC)
    assert a["status"] == "ok"
    assert a["metrics"]
    assert json.dumps(a["metrics"]) == json.dumps(b["metrics"])
    # The figure-level counters the paper's mechanisms map to are there.
    assert "mvapich.eager_sends" in a["metrics"]
    assert "mvapich.reg_cache.misses" in a["metrics"]


def test_serial_equals_parallel_campaign_metrics(tmp_path):
    serial = CampaignEngine(root=tmp_path / "s", workers=1).run(CAMPAIGN)
    parallel = CampaignEngine(root=tmp_path / "p", workers=4).run(CAMPAIGN)

    def metric_payload(result):
        return json.dumps(
            sorted(
                (r["key"], r.get("metrics", {})) for r in result.records
            ),
            sort_keys=True,
        )

    assert metric_payload(serial) == metric_payload(parallel)
    assert all(r.get("metrics") for r in serial.records)


def test_disabled_telemetry_does_not_change_results():
    """Golden-result safety: instruments must never perturb timing."""
    elapsed = []
    for telemetry in (None, Telemetry(metrics=True, timeline=True)):
        machine = Machine("ib", 2, seed=5, telemetry=telemetry)
        result = machine.run(pingpong_program(size=4096, repetitions=4))
        elapsed.append((result.elapsed_us, result.values))
    assert elapsed[0] == elapsed[1]


def test_run_result_metrics_follow_enablement():
    on = Machine("elan", 2, seed=0, telemetry=Telemetry(metrics=True))
    on.run(pingpong_program(size=1024, repetitions=2))
    assert on.metrics()["qmpi.tx"] > 0
    off = Machine("elan", 2, seed=0)
    off.run(pingpong_program(size=1024, repetitions=2))
    assert "qmpi.tx" not in off.metrics()
