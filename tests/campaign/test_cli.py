"""Tests for the repro-campaign console script (run/status/clean)."""

import json

import pytest

from repro.campaign import JobScheduler, RunSpec
from repro.campaign.cli import main

SPEC = {
    "name": "cli-test",
    "base": {"app": "pingpong", "nodes": 2},
    "grid": {"network": ["ib", "elan"], "app_args.size": [0, 1024]},
    "repetitions": 1,
    "seed_base": 0,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(SPEC))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_then_rerun_hits_cache(spec_file, tmp_path, capsys):
    root = tmp_path / "root"
    assert run_cli("run", spec_file, "--root", root, "--quiet") == 0
    out = capsys.readouterr().out
    assert "4 runs" in out and "4 executed" in out
    assert run_cli("run", spec_file, "--root", root, "--quiet") == 0
    out = capsys.readouterr().out
    assert "100% hit rate" in out and "0 executed" in out


def test_run_values_output(spec_file, tmp_path, capsys):
    run_cli("run", spec_file, "--root", tmp_path / "r", "--quiet", "--values")
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    assert all(isinstance(r["value"], float) for r in rows)


def test_run_parallel_workers(spec_file, tmp_path, capsys):
    code = run_cli(
        "run", spec_file, "--root", tmp_path / "r", "--quiet", "--workers", 4
    )
    assert code == 0
    assert "0 errors" in capsys.readouterr().out


def test_status_reports_journal_and_cache(spec_file, tmp_path, capsys):
    root = tmp_path / "root"
    run_cli("run", spec_file, "--root", root, "--quiet")
    capsys.readouterr()
    assert run_cli("status", "--root", root) == 0
    out = capsys.readouterr().out
    assert "4 records (4 ok, 0 error, 0 reused)" in out
    assert "4 distinct completed runs" in out
    assert "cache: 4 entries" in out
    assert "pingpong" in out  # tail lines show run labels


def test_clean_removes_state(spec_file, tmp_path, capsys):
    root = tmp_path / "root"
    run_cli("run", spec_file, "--root", root, "--quiet")
    assert run_cli("clean", "--root", root) == 0
    capsys.readouterr()
    run_cli("status", "--root", root)
    out = capsys.readouterr().out
    assert "0 records" in out and "cache: 0 entries" in out


def test_clean_removes_the_job_store(tmp_path, capsys):
    # A daemon's scheduler leaves jobs.jsonl beside the cache.
    root = tmp_path / "root"
    scheduler = JobScheduler.at(root, workers=1)
    try:
        scheduler.submit(RunSpec(app="pingpong", network="ib", nodes=2))
        assert scheduler.wait(timeout_s=60)
    finally:
        scheduler.close()
    assert run_cli("clean", "--root", root) == 0
    assert "the job store" in capsys.readouterr().out
    assert run_cli("status", "--root", root, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["scheduler"]["jobs"].values()) == 0
    assert payload["cache"]["entries"] == 0
    restarted = JobScheduler.at(root, workers=1)
    try:
        assert restarted.jobs() == []
    finally:
        restarted.close()


def test_bad_spec_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", bad, "--root", tmp_path / "r") == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.campaign.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "status" in proc.stdout


def test_status_json_output(spec_file, tmp_path, capsys):
    root = tmp_path / "root"
    run_cli("run", spec_file, "--root", root, "--quiet")
    capsys.readouterr()
    assert run_cli("status", "--root", root, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["journal"]["records"] == 4
    assert payload["journal"]["ok"] == 4
    assert payload["journal"]["distinct_completed"] == 4
    assert payload["cache"]["entries"] == 4
    assert payload["cache"]["size_bytes"] > 0
    assert payload["quarantine"] == []
    assert len(payload["recent"]) == 4
    assert all(r["status"] == "ok" for r in payload["recent"])
