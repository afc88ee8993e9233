"""File walking, suppression handling, and findings for ``repro-lint``.

The linter parses each file once with :mod:`ast` (rules) and once with
:mod:`tokenize` (suppression comments).  A finding is suppressed when
its line carries ``# repro-lint: disable=RPRnnn[, RPRmmm...]`` or
``# repro-lint: disable=all``.  Rule lists may be separated by commas
with or without spaces, and trailing prose after the list is ignored
(``# repro-lint: disable=RPR003, RPR007 -- sanctioned schedule entry``).
The whole-program passes (:mod:`repro.analysis.flow`) share this
machinery and the one tag, so ``disable=all`` covers RPR001-RPR023.

Findings carry a content-based :attr:`Finding.fingerprint` so the
committed baseline survives unrelated edits: it hashes the rule id, the
repo-relative path, the *normalized source text of the flagged line*,
and the occurrence index among identical lines — never the line
number.  Moving a flagged line does not churn the baseline; changing or
duplicating it does.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .rules import RULES, RawFinding, run_rules

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s-]+)")

#: A rule token is ``all`` or a rule id like ``RPR003``; anything else in
#: a disable list (trailing prose, a justification) is ignored.
_RULE_TOKEN_RE = re.compile(r"^(all|[A-Za-z]{2,4}\d{3})$", re.IGNORECASE)

#: Directory names never descended into when walking a tree.
_SKIP_DIRS = {
    ".git", "__pycache__", ".pytest_cache", "build", "dist",
    ".eggs", "node_modules", ".tox", ".venv", "venv",
}


@dataclass(frozen=True)
class Finding:
    """One linter hit, pinned to a file/line with a stable fingerprint."""

    path: str          #: repo-relative POSIX path
    line: int          #: 1-based line number
    col: int           #: 0-based column offset
    rule: str          #: e.g. ``"RPR003"``
    message: str       #: human-readable explanation
    text: str          #: stripped source text of the flagged line
    #: Index among findings with the same (rule, path, text) triple,
    #: in line order — disambiguates duplicated lines.
    occurrence: int = 0
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.fingerprint:
            digest = hashlib.sha1(
                "\x1f".join(
                    (self.rule, self.path, self.text, str(self.occurrence))
                ).encode("utf-8", "replace")
            ).hexdigest()[:16]
            object.__setattr__(self, "fingerprint", digest)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "text": self.text,
            "fingerprint": self.fingerprint,
        }


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids disabled on that line.

    The special token ``all`` expands to every rule in :data:`RULES`.
    Rule lists split on commas, tolerate surrounding whitespace
    (``disable=RPR003, RPR007``), and drop any trailing prose after a
    rule token rather than corrupting the token.  Tokenizing (not
    substring search) keeps the directive out of string literals.
    """
    suppressed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            ids: Set[str] = set()
            for part in match.group(1).split(","):
                words = part.split()
                if not words:
                    continue
                # Only the first word of each comma-separated part can
                # be a rule token; the rest is justification prose.
                token = words[0]
                if not _RULE_TOKEN_RE.match(token):
                    continue
                if token.lower() == "all":
                    ids.update(RULES)
                else:
                    ids.add(token.upper())
            suppressed.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        pass  # rules still ran on whatever ast could parse
    return suppressed


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source text. ``path`` labels the findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="RPR000",
                message=f"syntax error: {exc.msg}",
                text="",
            )
        ]
    raw = run_rules(tree, path=path)
    if not raw:
        return []
    return assemble_findings(raw, source, path, parse_suppressions(source))


def assemble_findings(
    raw: Sequence[RawFinding],
    source: str,
    path: str,
    suppressed: Dict[int, Set[str]],
) -> List[Finding]:
    """Turn raw ``(line, col, rule, message)`` hits into :class:`Finding`\\ s.

    Applies per-line suppressions, attaches the flagged line's text, and
    stamps the occurrence index that makes fingerprints of duplicated
    lines distinct.  Shared by the per-file rules and the whole-program
    passes so both get identical baseline semantics.
    """
    lines = source.splitlines()
    counts: Dict[Tuple[str, str], int] = {}
    findings: List[Finding] = []
    for line, col, rule, message in raw:
        if rule in suppressed.get(line, ()):
            continue
        text = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        key = (rule, text)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                rule=rule,
                message=message,
                text=text,
                occurrence=occurrence,
            )
        )
    return findings


def _rel_label(file: Path, root: Path) -> str:
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.as_posix()


def lint_files(
    files: Iterable[Path], root: Path = None  # type: ignore[assignment]
) -> List[Finding]:
    """Lint the given files; paths in findings are relative to ``root``."""
    root = root or Path.cwd()
    findings: List[Finding] = []
    for file in files:
        source = Path(file).read_text(encoding="utf-8", errors="replace")
        findings.extend(lint_source(source, _rel_label(Path(file), root)))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    The result is deduplicated and sorted by POSIX path string,
    regardless of the order ``paths`` were given in or the order the
    filesystem yields directory entries — so findings (and
    therefore baseline diffs) are stable across machines and
    filesystems.
    """
    out: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.add(sub)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out, key=lambda p: p.as_posix())


def lint_paths(
    paths: Sequence[Path], root: Path = None  # type: ignore[assignment]
) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    return lint_files(iter_python_files(paths), root=root)
