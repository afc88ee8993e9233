"""Job timing and kernel profiles through the serve daemon.

End-to-end: a profiled serve daemon executes a cold run, the scheduler
feeds the queue-delay / wall-time histograms that ``/v1/status``
reports, and ``GET /v1/jobs/<id>`` returns the job's record with its
kernel-profile summary.  The durable half — ``repro-campaign status
--json``'s ``scheduler`` block — is folded from ``jobs.jsonl`` with no
live scheduler at all.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.campaign.cli import render_status, status_payload
from repro.campaign.scheduler import scheduler_status
from repro.serve import ServeService

pytestmark = [pytest.mark.perf, pytest.mark.serve]

SPEC = {"app": "pingpong", "network": "ib", "nodes": 2,
        "app_args": {"size": 2048}}


def http(method, url, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def run_cold(svc):
    """POST ``SPEC`` and wait for it; returns the finished job's id."""
    status, body = http(
        "POST", svc.url + "/v1/runs", {"spec": SPEC, "wait_s": 120}
    )
    assert status == 200 and body["job"]["state"] == "done", body
    return body["job"]["id"]


@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """A profiled daemon and the id of the one cold job it ran."""
    root = tmp_path_factory.mktemp("perf-serve")
    svc = ServeService(root, workers=1, echo=None, profile=True).start()
    job_id = run_cold(svc)
    yield svc, job_id
    svc.close()


@pytest.fixture
def profiled_service(profiled_run):
    return profiled_run[0]


def test_perf_endpoint_reports_profiled_jobs(profiled_run):
    svc, job_id = profiled_run
    status, body = http("GET", f"{svc.url}/v1/jobs/{job_id}")
    assert status == 200
    job = body["job"]
    assert job["state"] == "done"
    record = job["record"]
    assert record["status"] == "ok"
    assert record["wall_s"] > 0
    events = record["metrics"]["sim.events"]
    assert events > 0
    # The kernel summary rode along on the record.
    assert record["perf"]["events"] == events
    assert record["perf"]["events_per_sec"] > 0
    assert record["perf"]["top_event_types"]


def test_scheduler_timing_histograms_fed(profiled_service):
    status, body = http("GET", profiled_service.url + "/v1/status")
    timing = body["scheduler"]["timing"]
    assert set(timing) == {"queue_delay_s", "wall_s", "turnaround_s"}
    for name in ("queue_delay_s", "wall_s", "turnaround_s"):
        assert timing[name]["count"] >= 1, name
        assert timing[name]["max"] >= timing[name]["mean"] >= 0.0


def test_status_carries_profile_flag_and_timing(profiled_service):
    status, body = http("GET", profiled_service.url + "/v1/status")
    assert body["service"]["profile"] is True
    assert body["scheduler"]["timing"]["wall_s"]["count"] >= 1
    durable = body["campaign_root"]["scheduler"]
    assert durable["jobs"]["done"] >= 1


def test_unprofiled_daemon_records_have_no_perf_block(tmp_path):
    svc = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        job_id = run_cold(svc)
        _, body = http("GET", f"{svc.url}/v1/jobs/{job_id}")
        assert body["job"]["record"]["status"] == "ok"
        assert "perf" not in body["job"]["record"]
        _, status = http("GET", svc.url + "/v1/status")
        assert status["service"]["profile"] is False
    finally:
        svc.close()


def test_perf_route_is_gone(profiled_service):
    with pytest.raises(urllib.error.HTTPError) as info:
        http("GET", profiled_service.url + "/v1/perf")
    assert info.value.code == 404


# -- durable fold (no live scheduler) -----------------------------------------


def test_scheduler_status_folds_jobs_jsonl(profiled_service):
    root = profiled_service.state.root
    block = scheduler_status(root)
    assert block["jobs"]["done"] >= 1
    assert block["queue_delay_s"]["count"] >= 1
    assert block["job_wall_s"]["count"] >= 1
    assert block["turnaround_s"]["count"] >= 1
    assert block["turnaround_s"]["max"] >= block["queue_delay_s"]["mean"]
    assert 0.0 <= block["cache_hit_ratio"] <= 1.0


def test_campaign_status_embeds_scheduler_block(profiled_service):
    root = profiled_service.state.root
    payload = status_payload(root)
    assert payload["scheduler"] == scheduler_status(root)
    json.dumps(payload)  # --json must serialize
    rendered = render_status(payload)
    assert "scheduler:" in rendered
    assert "cache-hit ratio" in rendered


def test_scheduler_status_on_empty_root(tmp_path):
    block = scheduler_status(tmp_path)
    assert block["jobs"] == {
        "pending": 0, "running": 0, "done": 0, "quarantined": 0,
    }
    assert block["cache_hit_ratio"] == 0.0
    assert block["queue_delay_s"]["count"] == 0
