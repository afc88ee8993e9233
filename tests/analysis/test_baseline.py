"""Baseline add/expire semantics and the ``repro-lint`` CLI contract."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.cli import main
from repro.analysis.linter import lint_source


pytestmark = pytest.mark.analysis

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = "import time\n\ndef f():\n    return time.time()\n"
CLEAN = "def f(sim):\n    return sim.now\n"


def findings_of(source):
    return lint_source(source, "mod.py")


class TestBaselineSemantics:
    def test_fresh_finding_is_new(self):
        diff = Baseline().split(findings_of(DIRTY))
        assert len(diff.new) == 1
        assert not diff.known and not diff.expired
        assert not diff.ok

    def test_baselined_finding_is_known(self):
        findings = findings_of(DIRTY)
        baseline = Baseline.from_findings(findings)
        diff = baseline.split(findings)
        assert not diff.new
        assert len(diff.known) == 1
        assert diff.ok

    def test_fixed_finding_expires(self):
        baseline = Baseline.from_findings(findings_of(DIRTY))
        diff = baseline.split(findings_of(CLEAN))
        assert not diff.new and not diff.known
        assert len(diff.expired) == 1
        assert diff.ok  # expired entries never fail the run

    def test_save_load_round_trip(self, tmp_path):
        findings = findings_of(DIRTY)
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        assert set(loaded.entries) == {f.fingerprint for f in findings}
        entry = loaded.entries[findings[0].fingerprint]
        assert entry["rule"] == "RPR001"

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"format": 99, "entries": {}}))
        with pytest.raises(ValueError, match="unsupported baseline format"):
            Baseline.load(path)

    def test_load_or_empty_missing_file(self, tmp_path):
        baseline = Baseline.load_or_empty(tmp_path / "absent.json")
        assert baseline.entries == {}


class TestCli:
    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        self.write(tmp_path, "bad.py", DIRTY)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "bad.py:4" in out

    def test_usage_error_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "nope")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), "--update-baseline"])
        assert exc.value.code == 2

    def test_update_baseline_then_pass(self, tmp_path, capsys):
        self.write(tmp_path, "bad.py", DIRTY)
        baseline = tmp_path / "b.json"
        assert (
            main(
                [
                    str(tmp_path),
                    "--baseline", str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert baseline.is_file()
        capsys.readouterr()
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_expired_entries_reported(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.py", DIRTY)
        baseline = tmp_path / "b.json"
        main(
            [
                str(tmp_path),
                "--baseline", str(baseline),
                "--update-baseline",
            ]
        )
        bad.write_text(CLEAN)
        capsys.readouterr()
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "1 expired" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        self.write(tmp_path, "bad.py", DIRTY)
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["new"] == 1
        assert payload["new"][0]["rule"] == "RPR001"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RPR001", "RPR008"):
            assert rule in out

    def test_list_rules_positional_matches_flag(self, capsys):
        assert main(["--list-rules"]) == 0
        flag_out = capsys.readouterr().out
        assert main(["list-rules"]) == 0
        assert capsys.readouterr().out == flag_out


class TestBaselineLineDrift:
    """The committed baseline keys on content, never line numbers."""

    def write(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        return path

    def baseline_for(self, tmp_path):
        baseline = tmp_path / "b.json"
        main(
            [
                str(tmp_path),
                "--baseline", str(baseline),
                "--update-baseline",
            ]
        )
        return baseline

    def test_moved_line_stays_baselined(self, tmp_path):
        mod = self.write(tmp_path, DIRTY)
        baseline = self.baseline_for(tmp_path)
        mod.write_text("# leading comment\n\n\n" + DIRTY)
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_edited_line_resurfaces(self, tmp_path):
        mod = self.write(tmp_path, DIRTY)
        baseline = self.baseline_for(tmp_path)
        mod.write_text(
            DIRTY.replace("time.time()", "float(time.time())")
        )
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1


class TestAcceptance:
    """The ISSUE's acceptance probe: seed hazards into a scratch copy of
    ``mvapich/impl.py`` and require the right rule ids at the right lines."""

    def test_shipped_tree_is_clean(self, capsys):
        # The CI gate's paths: the package, the benchmarks and examples.
        assert (
            main(
                [
                    str(REPO_ROOT / "src" / "repro"),
                    str(REPO_ROOT / "benchmarks"),
                    str(REPO_ROOT / "examples"),
                    "--baseline",
                    str(REPO_ROOT / ".repro-lint-baseline.json"),
                ]
            )
            == 0
        )

    def test_injected_hazards_caught(self, tmp_path, capsys):
        original = (
            REPO_ROOT / "src" / "repro" / "mpi" / "mvapich" / "impl.py"
        )
        scratch = tmp_path / "impl.py"
        shutil.copy(original, scratch)
        source = scratch.read_text()
        injected = source + (
            "\n\ndef _tainted(items):\n"
            "    import random\n"
            "    jitter = random.random()\n"
            "    for item in {1, 2, 3}:\n"
            "        jitter += item\n"
            "    return jitter\n"
        )
        scratch.write_text(injected)
        base_lines = source.count("\n")
        assert main([str(scratch), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_rule = {f["rule"]: f for f in payload["new"]}
        assert "RPR001" in by_rule, payload["new"]
        assert "RPR002" in by_rule, payload["new"]
        assert by_rule["RPR001"]["line"] == base_lines + 5
        assert by_rule["RPR002"]["line"] == base_lines + 6
