"""JobScheduler tests: coalescing, durability, quarantine, determinism.

The scheduler is the shared substrate under ``repro-campaign run`` and
the ``repro-serve`` daemon, so its contracts are tested directly here:
identical in-flight specs coalesce onto one job, the JSONL job store
survives a simulated daemon restart, quarantine reaches the job state,
and pooled execution stays bit-identical to serial.
"""

import json

import pytest

from repro.campaign import CampaignEngine, JobScheduler, JobStore, RunSpec
from repro.campaign.scheduler import DONE, PENDING, QUARANTINED

pytestmark = pytest.mark.serve


def good_spec(size=8, **overrides):
    kwargs = dict(
        app="pingpong", network="ib", nodes=2, app_args=(("size", size),)
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def bad_spec():
    # One rank can't ping-pong: the run fails deterministically.
    return RunSpec(app="pingpong", network="ib", nodes=1)


def held(scheduler, monkeypatch):
    """Patch dispatch to a no-op so submitted jobs stay pending."""
    monkeypatch.setattr(scheduler, "_dispatch", lambda job: None)
    return scheduler


# -- coalescing ---------------------------------------------------------------


def test_identical_inflight_specs_coalesce(tmp_path, monkeypatch):
    scheduler = held(JobScheduler.at(tmp_path, workers=1), monkeypatch)
    try:
        first = scheduler.submit(good_spec())
        second = scheduler.submit(good_spec())
        third = scheduler.submit(good_spec(size=64))
        assert first.source == "scheduled"
        assert second.source == "coalesced"
        assert second.job is first.job
        assert third.source == "scheduled" and third.job is not first.job
        assert scheduler.stats["coalesced"] == 1
        assert scheduler.stats["scheduled"] == 2
        # Dict-key order and int-vs-float noise coalesce too.
        fourth = scheduler.submit(
            RunSpec(app="pingpong", network="ib", nodes=2.0,
                    app_args=(("size", 8.0),))
        )
        assert fourth.source == "coalesced" and fourth.job is first.job
        monkeypatch.undo()
        scheduler.start()  # dispatch the held backlog
        scheduler.wait(timeout_s=60)
        assert first.job.state == DONE
        assert first.job.record["status"] == "ok"
    finally:
        scheduler.close()


def test_completed_job_stops_coalescing_and_hits_cache(tmp_path):
    scheduler = JobScheduler.at(tmp_path, workers=1)
    try:
        first = scheduler.submit(good_spec())
        scheduler.wait(timeout_s=60)
        again = scheduler.submit(good_spec())
        assert again.source == "cache"
        assert again.record == first.job.record
        # A hit carries the text the disk cache stored for the record.
        stored = scheduler.cache.path(again.record["key"]).read_text()
        assert again.text == stored
        assert again.text == json.dumps(again.record, sort_keys=True)
    finally:
        scheduler.close()


# -- JSONL durability and restart --------------------------------------------


def test_job_store_survives_restart(tmp_path, monkeypatch):
    first = held(JobScheduler.at(tmp_path, workers=1), monkeypatch)
    done_key = good_spec(size=64).key
    try:
        monkeypatch.undo()
        first.submit(good_spec(size=64))
        first.wait(timeout_s=60)  # one job completes...
        monkeypatch.setattr(first, "_dispatch", lambda job: None)
        first.submit(good_spec(size=8))
        first.submit(good_spec(size=16))  # ...two die in flight
    finally:
        first.close(wait=False)

    second = JobScheduler.at(tmp_path, workers=1)
    try:
        assert second.stats["resumed"] == 2
        states = {j.id: j.state for j in second.jobs()}
        assert sorted(states.values()) == [DONE, PENDING, PENDING]
        finished = [j for j in second.jobs() if j.state == DONE]
        assert finished[0].key == done_key
        assert finished[0].record["status"] == "ok"
        # start() re-dispatches exactly the restored backlog.
        second.start()
        second.wait(timeout_s=60)
        assert all(j.state == DONE for j in second.jobs())
        values = {j.key: j.record["value"] for j in second.jobs()}
        assert len(values) == 3
    finally:
        second.close()

    # Third incarnation sees only terminal jobs: nothing resumes.
    third = JobScheduler.at(tmp_path, workers=1)
    try:
        assert third.stats["resumed"] == 0
        assert all(j.state == DONE for j in third.jobs())
    finally:
        third.close()


def test_job_store_skips_torn_lines(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.append({"id": "j1", "event": "submitted", "state": "pending",
                  "spec": good_spec().to_dict()})
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"id": "j2", "event": "subm')  # torn mid-write
    lines = JobStore(path).load()
    assert [line["id"] for line in lines] == ["j1"]


def test_in_memory_store_is_ephemeral(tmp_path):
    # The batch engine's scheduler keeps its jobs in memory.
    scheduler = CampaignEngine(root=tmp_path, workers=1).scheduler()
    try:
        scheduler.submit(good_spec())
        scheduler.wait(timeout_s=60)
        assert not (tmp_path / "jobs.jsonl").exists()
    finally:
        scheduler.close()


# -- quarantine propagation ---------------------------------------------------


def test_failure_quarantines_job_state(tmp_path):
    scheduler = JobScheduler.at(tmp_path, workers=1)
    try:
        sub = scheduler.submit(bad_spec())
        scheduler.wait(timeout_s=60)
        job = sub.job
        assert job.state == QUARANTINED
        assert job.record["status"] == "error"
        events = [e["event"] for e in job.events]
        assert events == ["submitted", "dispatched", QUARANTINED]
        assert scheduler.stats["quarantined"] == 1
        # The quarantine journal got the record; the cache did not.
        quarantine = [
            json.loads(line)
            for line in (tmp_path / "quarantine.jsonl").read_text().splitlines()
        ]
        assert len(quarantine) == 1 and quarantine[0]["status"] == "error"
        assert scheduler.cache.get(bad_spec().key) is None
    finally:
        scheduler.close()


def test_retries_then_quarantine_counts_attempts(tmp_path):
    scheduler = JobScheduler.at(
        tmp_path, workers=1, max_retries=2, retry_backoff_s=0.0
    )
    try:
        sub = scheduler.submit(bad_spec())
        scheduler.wait(timeout_s=60)
        assert sub.job.state == QUARANTINED
        # One first-pass failure plus two retries were executed.
        assert sub.job.attempts == 3
        assert sub.job.record["retry"] == 2
    finally:
        scheduler.close()


def test_quarantined_key_leaves_inflight_map(tmp_path):
    scheduler = JobScheduler.at(tmp_path, workers=1)
    try:
        first = scheduler.submit(bad_spec())
        scheduler.wait(timeout_s=60)
        again = scheduler.submit(bad_spec())
        # Failures are never cached: the resubmit schedules a new job.
        assert again.source == "scheduled"
        assert again.job is not first.job
        scheduler.wait(timeout_s=60)
    finally:
        scheduler.close()


# -- serial == pooled ---------------------------------------------------------


def payload(records):
    """The deterministic part of records (wall time varies)."""
    return json.dumps(
        [{k: v for k, v in r.items() if k != "wall_s"} for r in records],
        sort_keys=True,
    )


def test_pooled_results_bit_identical_to_serial(tmp_path):
    specs = [
        good_spec(size=size, network=network)
        for network in ("ib", "elan")
        for size in (0, 1024, 65536)
    ]
    serial = JobScheduler.at(tmp_path / "serial", workers=1)
    try:
        serial_jobs = [serial.submit(s).job for s in specs]
        serial.wait(timeout_s=120)
        serial_records = [j.record for j in serial_jobs]
    finally:
        serial.close()

    pooled = JobScheduler.at(tmp_path / "pooled", workers=2)
    try:
        pooled_jobs = [pooled.submit(s).job for s in specs]
        pooled.wait(timeout_s=120)
        pooled_records = [j.record for j in pooled_jobs]
    finally:
        pooled.close()

    assert all(r["status"] == "ok" for r in serial_records)
    assert payload(serial_records) == payload(pooled_records)
