"""The perf ladder: rung execution, row shape, the results file."""

import json

import pytest

from repro.perf import LADDER, ladder, ladder_cases, run_case, write_results

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
    "wall_s_min",
    "wall_s_max",
    "events_per_sec",
}


@pytest.fixture(scope="module")
def crossbar_row():
    """One real quick rung, shared across the shape tests."""
    (case,) = ladder_cases(["crossbar-64"])
    return run_case(case, quick=True)


def test_ladder_case_names_are_unique_and_stable():
    names = [case.name for case in LADDER]
    assert len(names) == len(set(names))
    # The diff gate and benchmarks/bench_perf.py join on these labels.
    assert {
        "barrier-256", "crossbar-64", "fattree-256", "degraded-fattree-64"
    } <= set(names)
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
    # The median of the trials, with the fastest and slowest beside it;
    # no profiler ran, so no attribution block rides on the row.
    assert 0 < row["wall_s_min"] <= row["wall_s"] <= row["wall_s_max"]
    assert "perf" not in row


def test_trials_run_unprofiled_and_report_their_median(monkeypatch):
    walls = iter([0.5, 0.1, 0.4, 0.2, 0.3])
    builds = []
    real_timed_run = ladder._timed_run

    def fake_timed_run(case, program_for, plan=None):
        result, machine, _ = real_timed_run(case, program_for, plan)
        builds.append(machine)
        return result, machine, next(walls)

    monkeypatch.setattr(ladder, "_timed_run", fake_timed_run)
    (case,) = ladder_cases(["crossbar-64"])
    row = run_case(case, quick=True)
    assert len(builds) == ladder.TRIALS == 5
    assert all(not m.sim.observers for m in builds)
    assert (row["wall_s"], row["wall_s_min"], row["wall_s_max"]) == (
        0.3, 0.1, 0.5
    )
    assert row["events_per_sec"] == round(row["events"] / 0.3)


def test_barrier_rung_is_the_fattree_rung_start_up(monkeypatch):
    monkeypatch.setattr(ladder, "TRIALS", 1)
    barrier, fattree = ladder_cases(["barrier-256", "fattree-256"])
    assert (barrier.network, barrier.nodes, barrier.topology) == (
        fattree.network, fattree.nodes, fattree.topology
    )
    row = run_case(barrier, quick=True)
    assert row["app"] == "barrier"
    # Start-up alone opens the same window the ping-pong rung measures
    # from, and is most of that rung's events.
    ping = run_case(fattree, quick=True)
    assert row["window_start_us"] == ping["window_start_us"]
    assert 0.9 * ping["events"] < row["events"] < ping["events"]


def test_a_rung_whose_event_count_moves_raises(monkeypatch):
    counts = iter([100, 100, 101, 100, 100])
    real_timed_run = ladder._timed_run

    def drifting(case, program_for, plan=None):
        result, machine, wall = real_timed_run(case, program_for, plan)
        machine.sim.events_processed = next(counts)
        return result, machine, wall

    monkeypatch.setattr(ladder, "_timed_run", drifting)
    (case,) = ladder_cases(["crossbar-64"])
    with pytest.raises(RuntimeError, match="trial 2 processed 101 events"):
        run_case(case, quick=True)


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
        "wall_s_min": 0.45,
        "wall_s_max": 0.6,
        "events_per_sec": 2000,
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
    assert doc["schema"] == "repro.perf/2"
    assert doc["quick"] is True
    assert doc["trials"] == 5
    assert doc["cases"] == rows
    assert not (tmp_path / "BENCH_topology.json").exists()
    assert not (tmp_path / "BENCH_chaos.json").exists()


def test_write_results_without_legacy_root(tmp_path):
    out = tmp_path / "sub" / "BENCH_perf.json"
    write_results([_fake_row("crossbar-64")], out)
    assert out.exists()
    # The parent directory is created and nothing is written beside the file.
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["BENCH_perf.json", "sub"]
