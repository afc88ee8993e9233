"""The perf gate: compare_results semantics and repro-perf CLI codes."""

import json

import pytest

from repro.perf import compare_results, load_results, render_comparison
from repro.perf.cli import main

pytestmark = pytest.mark.perf


def _doc(cases):
    return {
        "schema": "repro.perf/2",
        "quick": True,
        "trials": 5,
        "cases": [{"case": name, "wall_s": wall} for name, wall in cases],
    }


def _rows(cases):
    return _doc(cases)["cases"]


def _by_case(comparison):
    return {entry["case"]: entry for entry in comparison["cases"]}


# -- compare_results ----------------------------------------------------------


def test_statuses_cover_all_join_outcomes():
    baseline = _rows(
        [("steady", 1.0), ("slow", 1.0), ("fast", 1.0), ("gone", 1.0)]
    )
    current = _rows(
        [("steady", 1.01), ("slow", 1.3), ("fast", 0.7), ("new", 1.0)]
    )
    comparison = compare_results(baseline, current, threshold=0.25)
    by_case = _by_case(comparison)
    assert by_case["steady"]["status"] == "ok"
    assert by_case["slow"]["status"] == "regressed"
    assert by_case["slow"]["ratio"] == 1.3
    assert by_case["fast"]["status"] == "improved"
    assert by_case["gone"]["status"] == "baseline-only"
    assert by_case["new"]["status"] == "current-only"
    assert comparison["passed"] is False
    assert comparison["regressed"] == ["slow"]


def test_boundary_is_strict():
    baseline = _rows([("edge", 1.0)])
    # Exactly threshold slower is still ok; any more fails.
    ok = compare_results(baseline, _rows([("edge", 1.25)]), threshold=0.25)
    assert ok["passed"] is True
    bad = compare_results(baseline, _rows([("edge", 1.251)]), threshold=0.25)
    assert bad["passed"] is False


def test_one_sided_cases_never_fail_the_gate():
    comparison = compare_results(
        _rows([("gone", 1.0)]), _rows([("new", 100.0)]), threshold=0.25
    )
    assert comparison["passed"] is True


def test_zero_baseline_counts_as_regression():
    comparison = compare_results(_rows([("a", 0)]), _rows([("a", 1.0)]))
    assert _by_case(comparison)["a"]["ratio"] == 0.0
    # b == 0 can't regress (guarded); it reports ok.
    assert _by_case(comparison)["a"]["status"] == "ok"
    assert comparison["passed"] is True


def test_load_results_reads_only_the_written_document(tmp_path):
    # A bare list of rows has no writer; write_results writes an object.
    bare = _write(tmp_path / "bare.json", _rows([("a", 1.0)]))
    with pytest.raises(ValueError, match="not a repro-perf results"):
        load_results(bare)
    no_cases = _write(tmp_path / "none.json", {"schema": "repro.perf/2"})
    with pytest.raises(ValueError, match="'cases' list"):
        load_results(no_cases)


def test_threshold_must_be_a_fraction():
    with pytest.raises(ValueError):
        compare_results([], [], threshold=1.0)
    with pytest.raises(ValueError):
        compare_results([], [], threshold=-0.1)


def test_render_comparison_has_verdict_line():
    good = compare_results(_rows([("a", 1.0)]), _rows([("a", 1.0)]))
    assert render_comparison(good).splitlines()[-1].startswith("PASS")
    bad = compare_results(_rows([("a", 1.0)]), _rows([("a", 10.0)]))
    assert "FAIL" in render_comparison(bad).splitlines()[-1]
    assert "a" in render_comparison(bad)


# -- CLI ----------------------------------------------------------------------


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_diff_exit_codes(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _doc([("a", 1.0)]))
    same = _write(tmp_path / "same.json", _doc([("a", 1.0)]))
    slow = _write(tmp_path / "slow.json", _doc([("a", 10.0)]))

    assert main(["diff", base, same]) == 0
    assert main(["diff", base, slow]) == 1
    # Within the threshold a smaller slowdown passes.
    assert main(["diff", base, _write(tmp_path / "s2.json", _doc([("a", 1.2)]))]) == 0
    assert main(["diff", base, str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["diff", base, str(bad)]) == 2
    bare = _write(tmp_path / "bare.json", _rows([("a", 1.0)]))
    assert main(["diff", base, bare]) == 2
    capsys.readouterr()


def test_cli_diff_json_output(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _doc([("a", 1.0)]))
    assert main(["diff", base, base, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True and out["threshold"] == 0.25


def test_cli_list_names_every_rung(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "barrier-256", "crossbar-64", "fattree-256", "degraded-fattree-64"
    ):
        assert name in out


def test_cli_run_rejects_unknown_case(tmp_path, capsys):
    code = main(
        ["run", "--quick", "--case", "nope", "-o", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "unknown ladder case" in capsys.readouterr().err


def test_cli_load_results_roundtrip(tmp_path):
    doc = _doc([("a", 1.0)])
    path = _write(tmp_path / "r.json", doc)
    assert load_results(path) == doc["cases"]
