"""Suppression parsing, fingerprint stability, and file walking."""

import textwrap

import pytest

from repro.analysis.linter import (
    Finding,
    iter_python_files,
    lint_files,
    lint_source,
    parse_suppressions,
)
from repro.analysis.rules import RULES


pytestmark = pytest.mark.analysis


class TestParseSuppressions:
    def test_single_rule(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=RPR001\n")
        assert sup == {1: {"RPR001"}}

    def test_multiple_rules_one_comment(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=RPR001,RPR003\n"
        )
        assert sup == {1: {"RPR001", "RPR003"}}

    def test_all_expands_to_every_rule(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=all\n")
        assert sup[1] == set(RULES)

    def test_lowercase_rule_id_normalized(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=rpr002\n")
        assert sup == {1: {"RPR002"}}

    def test_directive_inside_string_ignored(self):
        sup = parse_suppressions(
            's = "# repro-lint: disable=RPR001"\n'
        )
        assert sup == {}

    def test_line_is_the_one_carrying_the_comment(self):
        sup = parse_suppressions(
            "x = 1\ny = 2  # repro-lint: disable=RPR004\nz = 3\n"
        )
        assert sup == {2: {"RPR004"}}

    def test_comma_space_separated_list(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=RPR003, RPR007\n"
        )
        assert sup == {1: {"RPR003", "RPR007"}}

    def test_trailing_prose_does_not_corrupt_the_list(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=RPR003, RPR007 -- sanctioned\n"
        )
        assert sup == {1: {"RPR003", "RPR007"}}

    def test_prose_only_part_is_dropped(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=RPR003, see ROADMAP\n"
        )
        assert sup == {1: {"RPR003"}}

    def test_audit_tag_ignored_by_lint_parse(self):
        # The retired ``repro-audit:`` tag suppresses nothing.
        sup = parse_suppressions(
            "x = 1  # repro-audit: disable=RPR022\n"
        )
        assert sup == {}

    def test_audit_all_expands_against_audit_universe(self):
        # The whole-program rules sit in the one table, so ``all`` on a
        # ``repro-lint:`` tag covers every one of them.
        sup = parse_suppressions("x = 1  # repro-lint: disable=all\n")
        assert {"RPR020", "RPR021", "RPR022", "RPR023"} <= sup[1]


class TestFingerprints:
    def test_line_number_free(self):
        """Moving a flagged line must not churn its fingerprint."""
        early = lint_source(
            "import time\n\ndef f():\n    return time.time()\n",
            "mod.py",
        )
        late = lint_source(
            "import time\n\n\n\n\n\ndef f():\n    return time.time()\n",
            "mod.py",
        )
        assert [f.fingerprint for f in early] == [
            f.fingerprint for f in late
        ]
        assert early[0].line != late[0].line

    def test_duplicated_lines_get_distinct_occurrences(self):
        source = textwrap.dedent(
            """
            import time

            def f():
                return time.time()

            def g():
                return time.time()
            """
        )
        findings = lint_source(source, "mod.py")
        assert len(findings) == 2
        assert findings[0].text == findings[1].text
        assert findings[0].occurrence == 0
        assert findings[1].occurrence == 1
        assert findings[0].fingerprint != findings[1].fingerprint

    def test_path_feeds_fingerprint(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        (a,) = lint_source(src, "a.py")
        (b,) = lint_source(src, "b.py")
        assert a.fingerprint != b.fingerprint

    def test_explicit_fingerprint_survives(self):
        f = Finding(
            path="x.py", line=1, col=0, rule="RPR001",
            message="m", text="t", fingerprint="deadbeefdeadbeef",
        )
        assert f.fingerprint == "deadbeefdeadbeef"

    def test_location_is_one_based(self):
        f = Finding(
            path="x.py", line=3, col=4, rule="RPR001",
            message="m", text="t",
        )
        assert f.location() == "x.py:3:5"


class TestFileWalking:
    def test_paths_relative_to_root(self, tmp_path):
        sub = tmp_path / "pkg"
        sub.mkdir()
        mod = sub / "mod.py"
        mod.write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        (finding,) = lint_files([mod], root=tmp_path)
        assert finding.path == "pkg/mod.py"

    def test_directories_walked_and_caches_skipped(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "b.py").write_text("import time\ntime.time()\n")
        files = iter_python_files([tmp_path])
        assert files == [tmp_path / "a.py"]

    def test_non_python_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("import time\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        files = iter_python_files(
            [tmp_path / "notes.txt", tmp_path / "a.py"]
        )
        assert files == [tmp_path / "a.py"]

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        (tmp_path / "b.py").write_text(src)
        (tmp_path / "a.py").write_text(src)
        findings = lint_files(
            [tmp_path / "b.py", tmp_path / "a.py"], root=tmp_path
        )
        assert [f.path for f in findings] == ["a.py", "b.py"]

    def test_walk_order_is_sorted_posix_paths(self, tmp_path):
        """iter_python_files is deterministic regardless of FS order."""
        for rel in ("zeta.py", "alpha.py", "pkg/inner.py", "pkg/a.py"):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert files == sorted(files, key=lambda p: p.as_posix())
        assert [p.name for p in files] == [
            "alpha.py", "a.py", "inner.py", "zeta.py",
        ]

    def test_walk_order_stable_across_argument_order(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        forward = iter_python_files([tmp_path / "a.py", tmp_path / "b.py"])
        reverse = iter_python_files([tmp_path / "b.py", tmp_path / "a.py"])
        assert forward == reverse
