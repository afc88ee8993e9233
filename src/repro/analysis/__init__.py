"""Static and runtime determinism analysis for the repro simulator.

Every conclusion this reproduction draws — the eager/rendezvous
crossover, the 4 MB pin-down-cache thrash, NIC-thread vs host matching —
rests on one repo-wide invariant: *same-seed runs are bit-identical and
serial == parallel*.  This package enforces that contract mechanically,
at three layers:

* :mod:`~repro.analysis.rules` / :mod:`~repro.analysis.linter` — the
  ``repro-lint`` per-file AST rules (RPR001-RPR012) targeting the
  hazards that actually corrupt simulation results (wall-clock reads,
  unseeded RNG, unordered ``set`` iteration, float accumulation over
  dict views, mutable default arguments, non-``Event`` yields in sim
  processes, unpicklable campaign spec values, telemetry allocation on
  the disabled path, swallowed simulation errors).
* :mod:`~repro.analysis.flow` — ``repro-lint``'s whole-program
  dataflow passes: a symbol table + call graph over the entire tree
  feeding units checking (RPR020/021), hot-path allocation gating
  (RPR022) and RNG provenance (RPR023) — the cross-module hazards the
  per-file rules cannot see.  One rule table, one suppression tag and
  one baseline cover both.
* :mod:`~repro.analysis.sanitizer` — an opt-in runtime sanitizer that
  flags same-timestamp event pairs touching one resource without a
  deterministic tiebreak key: the sim-level analogue of a data race.
* :mod:`~repro.analysis.invariants` — end-of-run conservation checks
  (no held resource slots, credits balanced, registration-cache bytes
  consistent, lifecycle spans closed) raising a structured
  :class:`~repro.errors.InvariantViolation`.

The linter ships with an empty baseline for ``src/repro`` — the tree is
clean — and CI fails on any *new* finding, so a stray
``random.random()`` or hash-ordered iteration cannot silently land.
"""

from ..errors import InvariantViolation
from .baseline import Baseline
from .flow import audit_paths
from .invariants import Violation, check_invariants, verify_invariants
from .linter import Finding, lint_files, lint_paths
from .rules import RULES, rule_ids
from .sanitizer import RaceFinding, RaceSanitizer

__all__ = [
    "audit_paths",
    "Baseline",
    "Finding",
    "InvariantViolation",
    "RaceFinding",
    "RaceSanitizer",
    "RULES",
    "Violation",
    "check_invariants",
    "lint_files",
    "lint_paths",
    "rule_ids",
    "verify_invariants",
]
