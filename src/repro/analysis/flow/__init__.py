"""``repro.analysis.flow`` — ``repro-lint``'s whole-program dataflow passes.

Where the per-file rules see one file at a time, these passes parse the
whole tree once into a :class:`~.symbols.SymbolTable` and a
:class:`~.callgraph.CallGraph`, then runs three interprocedural passes:

* :mod:`~.dimensions` — units checking (RPR020/RPR021): time-us vs
  time-s vs bytes vs B/us vs dollars, inferred from name suffixes,
  :mod:`repro.units` helpers and annotations, propagated through
  assignments, calls and returns;
* :mod:`~.allocations` — hot-path allocation gating (RPR022) over the
  kernel event loop, grant paths and disabled-telemetry singletons;
* :mod:`~.provenance` — RNG provenance (RPR023): every random draw must
  provably reach a named seeded stream.

Findings reuse the linter's :class:`~repro.analysis.linter.Finding`
machinery — content fingerprints, per-line ``# repro-lint:
disable=RPRnnn`` suppressions, the committed baseline and the text/JSON
reporters — and ``repro-lint`` runs these passes on every invocation,
next to the per-file rules.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..linter import Finding, assemble_findings, parse_suppressions
from ..rules import RawFinding
from .allocations import DEFAULT_HOT_ROOTS, check_allocations
from .callgraph import CallGraph
from .dimensions import check_dimensions
from .provenance import check_provenance
from .symbols import SymbolTable


class Project:
    """One parsed tree: symbol table + call graph, built once."""

    def __init__(self, symtab: SymbolTable) -> None:
        self.symtab = symtab
        self.callgraph = CallGraph(symtab)

    @classmethod
    def load(
        cls, paths: Sequence[Path], root: Optional[Path] = None
    ) -> "Project":
        return cls(SymbolTable.build(paths, root=root))


def audit_project(
    project: Project,
    roots: Sequence[str] = DEFAULT_HOT_ROOTS,
) -> List[Finding]:
    """Run all three passes and assemble suppression-aware findings."""
    raw_by_path: Dict[str, List[RawFinding]] = {}
    for pass_result in (
        check_dimensions(project.symtab, project.callgraph),
        check_allocations(project.symtab, project.callgraph, roots),
        check_provenance(project.symtab, project.callgraph),
    ):
        for path, raw in pass_result.items():
            raw_by_path.setdefault(path, []).extend(raw)

    source_by_path = {
        mod.path: mod.source for mod in project.symtab.modules.values()
    }
    findings: List[Finding] = []
    for path in sorted(raw_by_path):
        source = source_by_path.get(path, "")
        findings.extend(
            assemble_findings(
                sorted(raw_by_path[path]), source, path,
                parse_suppressions(source),
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def audit_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    roots: Sequence[str] = DEFAULT_HOT_ROOTS,
) -> List[Finding]:
    """Audit every ``.py`` file under the given files/directories."""
    return audit_project(Project.load(paths, root=root), roots=roots)


__all__ = [
    "CallGraph",
    "DEFAULT_HOT_ROOTS",
    "Project",
    "SymbolTable",
    "audit_paths",
    "audit_project",
]
