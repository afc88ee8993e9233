"""The perf ladder: rung execution, row shape, the results file."""

import json

import pytest

from repro.perf import LADDER, ladder_cases, run_case, write_results

pytestmark = pytest.mark.perf

#: Keys every ladder row carries regardless of workload family.
_BASE_KEYS = {
    "case",
    "app",
    "network",
    "nodes",
    "topology",
    "quick",
    "events",
    "wall_s",
    "events_per_sec",
}


@pytest.fixture(scope="module")
def crossbar_row():
    """One real quick rung, shared across the shape tests."""
    (case,) = ladder_cases(["crossbar-64"])
    return run_case(case, quick=True, profile=True)


def test_ladder_case_names_are_unique_and_stable():
    names = [case.name for case in LADDER]
    assert len(names) == len(set(names))
    # The diff gate and benchmarks/bench_perf.py join on these labels.
    assert {"crossbar-64", "fattree-256", "degraded-fattree-64"} <= set(names)
    assert len(names) >= 5


def test_ladder_cases_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown ladder case"):
        ladder_cases(["crossbar-64", "nope"])


def test_run_case_row_shape(crossbar_row):
    row = crossbar_row
    assert _BASE_KEYS <= set(row)
    assert row["case"] == "crossbar-64"
    assert row["quick"] is True
    assert row["events"] > 0 and row["events_per_sec"] > 0
    assert row["latency_us"] > 0
    # Profiled rung embeds the compact kernel summary.
    assert row["perf"]["events"] == row["events"]
    assert row["perf"]["top_event_types"]


def test_run_case_without_profile_skips_perf_block():
    (case,) = ladder_cases(["crossbar-64"])
    row = run_case(case, quick=True, profile=False)
    assert "perf" not in row
    assert row["events"] > 0 and row["events_per_sec"] > 0


def test_sample_mode_writes_flamegraph_and_chrome(tmp_path, crossbar_row):
    (case,) = ladder_cases(["crossbar-64"])
    row = run_case(
        case,
        quick=True,
        sample=True,
        sample_interval_ms=1.0,
        flamegraph_dir=tmp_path / "fg",
        chrome_dir=tmp_path / "ct",
    )
    assert row["samples"] >= 0
    collapsed = tmp_path / "fg" / "crossbar-64.collapsed"
    assert collapsed.exists()
    trace = tmp_path / "ct" / "crossbar-64.kernel.trace.json"
    doc = json.loads(trace.read_text())
    assert doc["otherData"]["kind"] == "kernel-profile"


# -- emission (synthetic rows, not simulation) --------------------------------


def _fake_row(name, **extra):
    row = {
        "case": name,
        "app": "pingpong",
        "network": "elan",
        "nodes": 64,
        "topology": "TopologySpec()",
        "quick": True,
        "events": 1000,
        "wall_s": 0.5,
        "events_per_sec": 2000,
        "perf": {"events": 1000},
    }
    row.update(extra)
    return row


def test_write_results_emits_unified_and_legacy_files(tmp_path):
    # BENCH_perf.json is the one perf file; the retired BENCH_topology.json
    # and BENCH_chaos.json projections are no longer written beside it.
    rows = [
        _fake_row("crossbar-64"),
        _fake_row("degraded-fattree-64", bw_ratio=0.9, failovers=1),
    ]
    out = tmp_path / "BENCH_perf.json"
    doc = write_results(rows, out)
    assert json.loads(out.read_text()) == doc
    assert doc["schema"] == "repro.perf/1"
    assert doc["quick"] is True
    assert doc["cases"] == rows
    assert not (tmp_path / "BENCH_topology.json").exists()
    assert not (tmp_path / "BENCH_chaos.json").exists()


def test_write_results_without_legacy_root(tmp_path):
    out = tmp_path / "sub" / "BENCH_perf.json"
    write_results([_fake_row("crossbar-64")], out)
    assert out.exists()
    # The parent directory is created and nothing is written beside the file.
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["BENCH_perf.json", "sub"]
