"""Tests for repro-explain's trace verbs: run --chrome, dump, summarize, diff."""

import json

import pytest

from repro.telemetry.explain import main

pytestmark = pytest.mark.telemetry


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    path = root / "ib.json"
    code = run_cli(
        "run",
        "--app", "pingpong",
        "--network", "ib",
        "--nodes", 2,
        "--arg", "size=65536",
        "--arg", "repetitions=3",
        "-o", root / "ib-report.json",
        "--chrome", path,
    )
    assert code == 0
    return path


def test_record_writes_loadable_json(trace_file, capsys):
    data = json.loads(trace_file.read_text())
    assert data["traceEvents"]
    assert data["otherData"]["metrics"]["mvapich.rndv_sends"] > 0


def test_record_reports_counts(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert (
        run_cli(
            "run", "--nodes", 2, "--arg", "size=1024",
            "-o", tmp_path / "r.json", "--chrome", path,
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "spans" in out and "trace events" in out
    assert str(path) in out


def test_dump_prints_events(trace_file, capsys):
    assert run_cli("dump", trace_file, "--limit", 5) == 0
    out = capsys.readouterr().out
    assert out.strip()
    assert len(out.strip().splitlines()) <= 6  # 5 events + "..."


def test_dump_category_filter(trace_file, capsys):
    assert run_cli("dump", trace_file, "--category", "resource") == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert "resource" in line


def test_summarize(trace_file, capsys):
    assert run_cli("summarize", trace_file) == 0
    out = capsys.readouterr().out
    assert "events:" in out
    assert "mvapich.rndv_sends" in out
    assert "busy time per track" in out


def test_diff_identical_exits_zero(trace_file, capsys):
    assert run_cli("diff", trace_file, trace_file) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_different_exits_one(trace_file, tmp_path, capsys):
    other = tmp_path / "elan.json"
    assert (
        run_cli(
            "run",
            "--network", "elan",
            "--nodes", 2,
            "--arg", "size=65536",
            "--arg", "repetitions=3",
            "-o", tmp_path / "elan-report.json",
            "--chrome", other,
        )
        == 0
    )
    capsys.readouterr()
    assert run_cli("diff", trace_file, other) == 1
    out = capsys.readouterr().out
    assert any(line[0] in "+-~" for line in out.splitlines() if line)


def test_diff_accepts_bare_metrics_dicts(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"x": 1, "y": 2}))
    b.write_text(json.dumps({"x": 1, "y": 3}))
    assert run_cli("diff", a, b) == 1
    assert "~ y: 2 -> 3" in capsys.readouterr().out


def test_diff_report_against_trace_exits_two(trace_file, tmp_path, capsys):
    report = trace_file.parent / "ib-report.json"
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"x": 1}))
    assert run_cli("diff", report, trace_file) == 2
    assert run_cli("diff", trace_file, report) == 2
    assert run_cli("diff", report, metrics) == 2
    assert "give two reports" in capsys.readouterr().err


def test_missing_file_is_graceful(tmp_path, capsys):
    assert run_cli("summarize", tmp_path / "nope.json") == 2
    assert "repro-explain:" in capsys.readouterr().err
