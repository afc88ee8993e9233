"""Hot-path allocation analysis — rule RPR022.

The PR-9 profiler showed the kernel's events/sec are dominated by
per-event allocation: every object constructed inside the event loop or
the resource grant paths is paid millions of times per campaign.  The
ROADMAP's kernel-speed overhaul (``__slots__``, event pooling,
generator flattening) needs a *static regression gate* so a cleaned-up
hot path cannot quietly grow allocations back.

This pass walks the call graph from the kernel's **hot roots**:

* the event loops — ``Simulator.run`` / ``Simulator._run_bare`` /
  ``Simulator._schedule_event``;
* event triggering and firing — ``Event._fire`` / ``Event.succeed`` /
  ``Timeout.__init__``;
* processes — ``Simulator.spawn`` / ``Process.__init__`` /
  ``Process._resume``;
* the grant paths — ``FifoResource.request/_grant/release`` and
  ``Store.put/get/_stamp/try_get``;
* the pipelined transfer, which runs most events — ``transfer`` and
  the step methods of its ``_Stage`` and ``_Gate`` objects (constructor
  edges are not followed, so each ``__init__`` is a root of its own);
* every method of the disabled-telemetry null singletons
  (``_Null*``/``Null*`` classes in :mod:`repro.telemetry`) — the
  "allocation-free when disabled" contract made mechanical.

Within the warm closure (resolved edges only, ``raise`` paths skipped —
error reporting may allocate freely) it flags every allocation
expression: dict/list/set/tuple displays, comprehensions, f-strings,
``lambda``/nested ``def`` (closure construction), and ``dict()`` /
``list()`` / ``set()`` builtin calls.

The kernel keeps a handful of *sanctioned* allocations — the schedule-entry
tuple, each event's callback list, the waiter pair, the sanitizer key
stamp, a transfer stage's ``(message, stage)`` grant key — each carrying an
inline ``# repro-lint: disable=RPR022`` with its justification; those
are the allocations the profiler already accounts for, and the point of
the gate is that adding an *unsanctioned* one fails CI.

A configured root that no longer resolves in an audited module raises
:class:`UnresolvedRootError` (``repro-lint`` exits 2): inlining or
renaming a kernel method must update :data:`DEFAULT_HOT_ROOTS`, or the
gate would quietly shrink.  Roots in modules outside the audited paths
are out of scope and skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Tuple

from ...errors import ConfigurationError
from ..rules import RawFinding
from .callgraph import CallGraph, cold_nodes
from .symbols import SymbolTable

#: Default hot roots: qualified function names, or class-qname prefixes
#: ending in ``.`` (every method of the class is a root).
DEFAULT_HOT_ROOTS: Tuple[str, ...] = (
    "repro.sim.engine.Simulator.run",
    "repro.sim.engine.Simulator._run_bare",
    "repro.sim.engine.Simulator._schedule_event",
    "repro.sim.engine.Simulator.spawn",
    "repro.sim.events.Event._fire",
    "repro.sim.events.Event.succeed",
    "repro.sim.events.Timeout.__init__",
    "repro.sim.process.Process.__init__",
    "repro.sim.process.Process._resume",
    "repro.sim.resources.FifoResource.request",
    "repro.sim.resources.FifoResource._grant",
    "repro.sim.resources.FifoResource.release",
    "repro.sim.resources.Store.put",
    "repro.sim.resources.Store.get",
    "repro.sim.resources.Store._stamp",
    "repro.sim.resources.Store.try_get",
    "repro.sim.pipelines.transfer",
    "repro.sim.pipelines._Stage.__init__",
    "repro.sim.pipelines._Stage._join",
    "repro.sim.pipelines._Stage._begin",
    "repro.sim.pipelines._Stage._granted",
    "repro.sim.pipelines._Stage._held",
    "repro.sim.pipelines._Stage._deliver",
    "repro.sim.pipelines._Gate.__init__",
    "repro.sim.pipelines._Gate._wait",
    "repro.sim.pipelines._Gate._open",
)

#: Telemetry/perf disabled-path singletons: any method of a class whose
#: name starts with one of these, in a module matching the package tail.
_NULL_CLASS_PREFIXES = ("_Null", "Null")
_NULL_PACKAGES = ("telemetry", "perf")

#: Null-class methods that are end-of-run *reporting* surface, not the
#: per-event fast path — called once per run, free to allocate.
_REPORTING_METHODS = {
    "report",
    "summary",
    "sampled",
    "snapshot",
    "to_dict",
    "to_dicts",
    "as_dict",
    "render",
}


class UnresolvedRootError(ConfigurationError):
    """A configured hot root names nothing in its (audited) module."""


def _audited_module(symtab: SymbolTable, root: str) -> str:
    """The module ``root`` lives in, if audited, else ``""``.

    A root is ``module.function`` or ``module.Class.method`` (its module
    drops one or two trailing names) or ``module.Class.`` (one).
    """
    parts = root.rstrip(".").split(".")
    for drop in (1,) if root.endswith(".") else (1, 2):
        name = ".".join(parts[:-drop])
        if name in symtab.modules:
            return name
    return ""


def expand_roots(
    symtab: SymbolTable, roots: Sequence[str] = DEFAULT_HOT_ROOTS
) -> List[str]:
    """Resolve the configured root spec against the symbol table.

    Raises :class:`UnresolvedRootError` for a root whose module is
    audited but which matches no function there.
    """
    expanded = set()
    for root in roots:
        if root in symtab.functions:
            expanded.add(root)
            continue
        matched = (
            [q for q in symtab.functions if q.startswith(root)]
            if root.endswith(".")
            else []
        )
        if not matched:
            module = _audited_module(symtab, root)
            if module:
                raise UnresolvedRootError(
                    f"hot root {root!r} matches no function in audited "
                    f"module {module!r}; update the configured roots "
                    "(DEFAULT_HOT_ROOTS) to follow the kernel"
                )
        expanded.update(matched)
    for qname, cls_sym in sorted(symtab.classes.items()):
        pkg = cls_sym.module.split(".")
        if any(p in _NULL_PACKAGES for p in pkg) and cls_sym.name.startswith(
            _NULL_CLASS_PREFIXES
        ):
            expanded.update(
                method_qname
                for name, method_qname in cls_sym.methods.items()
                if name not in _REPORTING_METHODS
            )
    return sorted(expanded)


def _allocation_label(node: ast.AST) -> str:
    if isinstance(node, ast.Dict):
        return "dict display"
    if isinstance(node, ast.List):
        return "list display"
    if isinstance(node, ast.Set):
        return "set display"
    if isinstance(node, ast.Tuple):
        return "tuple display"
    if isinstance(node, ast.ListComp):
        return "list comprehension"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.DictComp):
        return "dict comprehension"
    if isinstance(node, ast.GeneratorExp):
        return "generator expression"
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, ast.Lambda):
        return "lambda (closure)"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return "nested def (closure)"
    if isinstance(node, ast.Call):
        return f"{node.func.id}() call"  # type: ignore[union-attr]
    return type(node).__name__


_ALLOC_BUILTINS = {"dict", "list", "set"}

_ALLOC_NODES = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.JoinedStr,
    ast.Lambda,
)


def _is_allocation(node: ast.AST, fn_node: ast.AST) -> bool:
    if isinstance(node, _ALLOC_NODES):
        return True
    if isinstance(node, ast.Tuple):
        return isinstance(node.ctx, ast.Load)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node is not fn_node
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ALLOC_BUILTINS
    ):
        return True
    return False


def _exempt_nodes(fn_node: ast.AST) -> set:
    """Node ids inside *fn_node* that look like allocations but are not.

    * annotation subtrees (argument/return annotations, ``AnnAssign``
      annotations) — evaluated at ``def`` time, never per event;
    * the value tuple of a short unpacking assignment
      (``a, b = b, a``) — CPython compiles 2- and 3-element swaps to
      stack rotations without building a tuple.
    """
    exempt: set = set()
    subtrees: List[ast.AST] = []
    for sub in ast.walk(fn_node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            for arg in (
                list(getattr(args, "posonlyargs", []))
                + list(args.args)
                + list(args.kwonlyargs)
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            ):
                if arg.annotation is not None:
                    subtrees.append(arg.annotation)
            if sub.returns is not None:
                subtrees.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            subtrees.append(sub.annotation)
        elif (
            isinstance(sub, ast.Assign)
            and isinstance(sub.value, ast.Tuple)
            and len(sub.value.elts) <= 3
            and any(isinstance(t, ast.Tuple) for t in sub.targets)
        ):
            exempt.add(id(sub.value))
    for tree in subtrees:
        for sub in ast.walk(tree):
            exempt.add(id(sub))
    return exempt


def check_allocations(
    symtab: SymbolTable,
    graph: CallGraph,
    roots: Sequence[str] = DEFAULT_HOT_ROOTS,
) -> Dict[str, List[RawFinding]]:
    """Run the allocation pass; raw findings keyed by module path."""
    root_list = expand_roots(symtab, roots)
    hot = graph.reachable_from(root_list)
    by_path: Dict[str, List[RawFinding]] = {}
    for qname in hot:
        sym = symtab.functions[qname]
        cold = cold_nodes(sym.node)
        exempt = _exempt_nodes(sym.node)
        skip: set = set()
        for node in ast.walk(sym.node):
            if id(node) in cold or id(node) in skip or id(node) in exempt:
                continue
            if not _is_allocation(node, sym.node):
                continue
            # Report the outermost allocation only; its inner
            # expressions disappear with it when the path is fixed.
            for sub in ast.walk(node):
                if sub is not node:
                    skip.add(id(sub))
            label = _allocation_label(node)
            entry = (
                f"root {qname}" if qname in root_list
                else f"{qname}, reachable from the kernel roots"
            )
            by_path.setdefault(sym.path, []).append(
                (
                    node.lineno,
                    node.col_offset,
                    "RPR022",
                    f"per-event allocation ({label}) on a kernel hot "
                    f"path ({entry}); hoist it, pool it, or justify it "
                    "with an inline suppression",
                )
            )
    for path in by_path:
        by_path[path] = sorted(set(by_path[path]))
    return by_path
