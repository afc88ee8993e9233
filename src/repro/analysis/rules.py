"""The ``repro-lint`` rule set: simulator-specific determinism hazards.

Each rule targets a way real PRs have been observed (here and in other
discrete-event codebases) to silently break the repo's determinism
contract — same-seed bit-identical, serial == parallel — or its
campaign-safety contract (picklable specs, allocation-free disabled
telemetry, no swallowed kernel errors).

==========  ==========================================================
RPR001      wall-clock read or unseeded RNG outside ``repro.sim.rng``
RPR002      iteration over a ``set`` (hash order feeds results)
RPR003      ``sum()`` over ``dict.keys()/values()/items()`` (float
            accumulation order depends on insertion history)
RPR004      mutable default argument
RPR005      sim process yields a non-``Event`` literal
RPR006      unpicklable construct (lambda) in a campaign/fault spec
RPR007      telemetry instrument fetched on a hot path (loop or sim
            process) instead of at construction time
RPR008      bare ``except`` or swallowed ``SimulationError``
RPR009      unordered iteration over a topology ``links``/``adjacency``
            mapping (lazy link creation makes insertion order depend on
            traffic history; iterate ``sorted(...)``)
RPR010      ``except`` clause swallowing ``LinkDeadError`` /
            ``RetryExhaustedError`` without re-raising or recording a
            fault annotation (hard failures must stay observable)
RPR011      blocking call (``time.sleep``, ``execute_run``,
            ``engine.run``/``run_specs``) inside an HTTP request
            handler class; serve handlers must answer from cache or
            hand back a job id, never run simulations inline
RPR012      ``time.perf_counter``/``time.monotonic`` inside
            ``repro.sim``, ``repro.networks`` or ``repro.mpi``:
            wall-clock reads on the kernel hot path belong to the
            ``repro.perf`` profiler seam (path-scoped rule)
==========  ==========================================================

The RPR020 series are *whole-program* findings from the dataflow passes
in :mod:`repro.analysis.flow`, which see across modules:

==========  ==========================================================
RPR020      mixed-dimension arithmetic or comparison (``_us`` + ``_s``,
            ``_bytes`` < ``_us``, ...): units are inferred from name
            suffixes, :mod:`repro.units` helpers and string-literal
            parameter annotations, then propagated through assignments,
            calls and returns
RPR021      argument whose inferred dimension contradicts the callee
            parameter's declared/inferred dimension
RPR022      per-event allocation (dict/list/set/tuple display,
            comprehension, f-string, closure) on a kernel hot path —
            the event loop, the resource grant paths, or a disabled
            telemetry/perf singleton
RPR023      random draw whose receiver does not provably come from a
            named seeded stream (``rng.stream(...)`` / ``fault.*``);
            traced interprocedurally through locals, ``self``
            attributes, returns and call arguments
==========  ==========================================================

Rules are deliberately narrow: each pattern flagged is one a reviewer
would reject on sight, so a finding is actionable and a clean tree can
stay clean with an **empty baseline**.  Deliberate exceptions (the
kernel's wall-clock watchdog, the RNG module's own ``default_rng``, the
kernel's sanctioned schedule-entry tuple) carry per-line
``# repro-lint: disable=RPRnnn`` suppressions.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

#: Rule id -> one-line description (shown by ``repro-lint list-rules``).
RULES: Dict[str, str] = {
    "RPR001": (
        "wall-clock or unseeded RNG use outside repro.sim.rng named "
        "streams breaks same-seed reproducibility"
    ),
    "RPR002": (
        "iteration over a set: hash order varies with PYTHONHASHSEED "
        "and insertion history (wrap in sorted() or use a list/dict)"
    ),
    "RPR003": (
        "sum() over dict.keys()/values()/items(): float accumulation "
        "order follows insertion history (sum over sorted items)"
    ),
    "RPR004": (
        "mutable default argument: shared across calls, and across "
        "runs within one campaign worker process"
    ),
    "RPR005": (
        "sim process yields a non-Event literal; the kernel only "
        "accepts Event/Process objects (use sim.timeout(dt))"
    ),
    "RPR006": (
        "lambda inside a campaign/fault spec call: specs must stay "
        "picklable for the multiprocessing campaign executor"
    ),
    "RPR007": (
        "telemetry instrument fetched inside a loop or sim process: "
        "fetch counters/gauges/channels once at construction so the "
        "disabled path stays allocation-free"
    ),
    "RPR008": (
        "bare except or swallowed exception hides kernel/protocol "
        "failures (deadlocks and crashed processes must surface)"
    ),
    "RPR009": (
        "iteration over a topology links/adjacency mapping follows "
        "insertion order, which lazy link creation ties to traffic "
        "history (iterate sorted(...) instead)"
    ),
    "RPR010": (
        "except clause swallows LinkDeadError/RetryExhaustedError "
        "without re-raising or recording a fault annotation; hard "
        "failures must stay observable"
    ),
    "RPR011": (
        "blocking call (time.sleep, execute_run, engine.run/run_specs) "
        "inside an HTTP request handler class; serve handlers answer "
        "from cache or schedule onto the JobScheduler, never inline"
    ),
    "RPR012": (
        "time.perf_counter/time.monotonic inside repro.sim, "
        "repro.networks or repro.mpi; wall-clock reads on the kernel "
        "hot path belong to the repro.perf profiler seam"
    ),
    "RPR020": (
        "mixed-dimension arithmetic/comparison: operands carry "
        "different inferred units (time-us vs time-s, bytes vs time, "
        "...), which silently corrupts every derived figure"
    ),
    "RPR021": (
        "wrong-dimension argument: the value passed has an inferred "
        "unit that contradicts the callee parameter's name suffix or "
        "annotation"
    ),
    "RPR022": (
        "per-event allocation (dict/list/set/tuple/comprehension/"
        "f-string/closure) on a kernel hot path reachable from the "
        "event loop, grant paths or disabled telemetry singletons"
    ),
    "RPR023": (
        "random draw that does not provably reach a named seeded "
        "stream (rng.stream(...)); ambient random/numpy.random "
        "generators break same-seed reproducibility"
    ),
}


def rule_ids() -> List[str]:
    """All rule ids, sorted."""
    return sorted(RULES)


#: One raw finding: (line, col, rule id, message).
RawFinding = Tuple[int, int, str, str]

# -- RPR001 tables ----------------------------------------------------------

#: ``module.attr`` call paths that read the wall clock.
_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Monotonic-clock reads guarded by the path-scoped RPR012: inside the
#: kernel packages these belong to the ``repro.perf`` profiler seam.
_HOT_CLOCK_NAMES = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
}

#: Path fragments (posix) that put a module in RPR012 scope.
_KERNEL_PATH_PARTS = ("repro/sim/", "repro/networks/", "repro/mpi/")


def kernel_scoped(path: str) -> bool:
    """Whether ``path`` is inside the RPR012 kernel scope."""
    norm = str(path).replace("\\", "/")
    return any(part in norm for part in _KERNEL_PATH_PARTS)


#: Functions of the stdlib ``random`` module (module-level API); any
#: attribute call on a name bound to ``import random`` is unseeded RNG.
_RANDOM_MODULES = {"random"}

#: numpy.random entry points that mint generators or draw directly.
_NP_RANDOM_ATTRS = {
    "default_rng", "rand", "randn", "randint", "random", "choice",
    "shuffle", "permutation", "uniform", "normal", "seed", "RandomState",
}

# -- RPR003 / RPR002 helpers -------------------------------------------------

_DICT_VIEW_METHODS = {"keys", "values", "items"}

#: Builtins whose result is order-independent — iterating a set through
#: these is safe and not flagged by RPR002.
_ORDER_INDEPENDENT_WRAPPERS = {"sorted", "len", "min", "max", "any", "all"}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter"}

#: Constructors whose arguments must stay picklable (RPR006).
_SPEC_CONSTRUCTORS = {"RunSpec", "CampaignSpec", "FaultPlan"}

#: Event-factory attribute names that mark a generator as a sim process.
_SIM_PROCESS_MARKERS = {"timeout", "request", "all_of", "any_of", "event"}

#: Instrument-fetching attributes guarded by RPR007, and the objects
#: they are fetched from.
_INSTRUMENT_METHODS = {"counter", "gauge", "histogram", "channel"}
_INSTRUMENT_OWNERS = {"metrics", "series", "telemetry"}

#: Topology mapping attributes guarded by RPR009: their insertion order
#: reflects route-creation (traffic) history, not a stable identity.
_TOPO_MAPPING_ATTRS = {"links", "adjacency"}

#: Exception names whose silent swallowing is flagged by RPR008.
_SWALLOW_GUARDED = {
    "Exception", "BaseException", "SimulationError", "ReproError",
    "DeadlockError", "WatchdogError", "InvariantViolation",
}

#: Hard-failure exceptions guarded by RPR010: any handler catching one
#: must re-raise or at least record the fault somewhere observable.
_FAULT_SWALLOW_GUARDED = {"LinkDeadError", "RetryExhaustedError"}

#: Attribute-call names that count as "recording the fault" in an
#: RPR010 handler: span/telemetry annotations, journals, logs, counters.
_FAULT_RECORD_ATTRS = {
    "note", "bump", "record", "log", "append", "fail", "inc", "update",
}

#: Base-class names that mark a class as an HTTP/socket request handler
#: for RPR011 (the socketserver/http.server family, or anything a repo
#: names like one).
_HANDLER_BASE_SUFFIX = "RequestHandler"

#: Method tails that run campaign work inline when called on an
#: engine-shaped receiver (RPR011).
_ENGINE_RUN_ATTRS = {"run", "run_specs"}


def _dotted(node: ast.AST) -> List[str]:
    """The attribute chain of ``a.b.c`` as ``["a", "b", "c"]`` (else [])."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether ``node`` statically looks like a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra on things we already know are sets.
        return _is_set_expr(node.left, set_names) and _is_set_expr(
            node.right, set_names
        )
    return False


def _is_dict_view(node: ast.AST) -> bool:
    """Whether ``node`` is a ``<expr>.keys()/values()/items()`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
        and not node.args
        and not node.keywords
    )


def _is_topo_mapping(node: ast.AST) -> bool:
    """Whether ``node`` reads a topology ``links``/``adjacency`` mapping.

    Matches the bare attribute (``fabric.links``) and its dict views
    (``fabric.links.items()``); a ``sorted(...)`` wrapper is a different
    node and therefore never reaches this check.
    """
    if _is_dict_view(node):
        node = node.func.value  # type: ignore[union-attr]
    return isinstance(node, ast.Attribute) and node.attr in _TOPO_MAPPING_ATTRS


class _FunctionInfo:
    """Per-function facts gathered in a first pass over its body."""

    __slots__ = ("is_generator", "is_sim_process", "set_names")

    def __init__(self) -> None:
        self.is_generator = False
        self.is_sim_process = False
        #: Local names only ever assigned set-valued expressions.
        self.set_names: Set[str] = set()


def _scan_function(fn: ast.AST) -> _FunctionInfo:
    """Classify one function and infer its set-typed locals."""
    info = _FunctionInfo()
    assigned_sets: Set[str] = set()
    assigned_other: Set[str] = set()
    for node in ast.walk(fn):
        if node is not fn and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # nested scopes classified separately
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            info.is_generator = True
            value = node.value
            if isinstance(value, ast.Call) and isinstance(
                value.func, ast.Attribute
            ):
                if value.func.attr in _SIM_PROCESS_MARKERS:
                    info.is_sim_process = True
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, assigned_sets):
                        assigned_sets.add(target.id)
                    else:
                        assigned_other.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            annotation = getattr(node.annotation, "id", None) or getattr(
                getattr(node.annotation, "value", None), "id", None
            )
            if annotation in ("set", "Set", "frozenset", "FrozenSet"):
                assigned_sets.add(node.target.id)
            elif node.value is not None and _is_set_expr(
                node.value, assigned_sets
            ):
                assigned_sets.add(node.target.id)
            else:
                assigned_other.add(node.target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            assigned_other.add(node.target.id)
    info.set_names = assigned_sets - assigned_other
    return info


class RuleVisitor(ast.NodeVisitor):
    """One pass over a module AST, collecting findings for every rule."""

    def __init__(self, path: str = "") -> None:
        self.findings: List[RawFinding] = []
        #: Whether this module lives in the RPR012 kernel scope.
        self._kernel_scope = kernel_scoped(path)
        #: Names bound to the stdlib ``random``/``time`` modules and to
        #: numpy / numpy.random, tracked from import statements.
        self._random_aliases: Set[str] = set()
        self._time_aliases: Set[str] = set()
        self._datetime_aliases: Set[str] = set()
        self._numpy_aliases: Set[str] = set()
        self._np_random_aliases: Set[str] = set()
        #: Functions imported directly (``from random import choice``).
        self._random_funcs: Set[str] = set()
        self._wall_funcs: Set[str] = set()
        #: Bound names of ``from time import perf_counter`` style
        #: imports of the RPR012-guarded monotonic clocks.
        self._hot_clock_funcs: Set[str] = set()
        #: ``from time import sleep`` style bindings (RPR011).
        self._sleep_funcs: Set[str] = set()
        #: Stack of _FunctionInfo for enclosing functions.
        self._fn_stack: List[_FunctionInfo] = []
        #: Loop nesting depth (for RPR007).
        self._loop_depth = 0
        #: Nesting depth of request-handler classes (RPR011).
        self._handler_depth = 0

    # -- plumbing ----------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            (node.lineno, node.col_offset, rule, message)
        )

    def _emit_hot_clock(self, node: ast.AST, call: str) -> None:
        self._emit(
            node,
            "RPR012",
            f"monotonic clock read {call}() inside the kernel packages; "
            "hot-path wall-clock reads belong to the repro.perf profiler "
            "seam",
        )

    def _fn(self) -> _FunctionInfo:
        return self._fn_stack[-1] if self._fn_stack else _FunctionInfo()

    # -- imports (RPR001 alias tracking) -----------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "datetime":
                self._datetime_aliases.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                if alias.name == "numpy.random" and alias.asname:
                    self._np_random_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._random_funcs.add(alias.asname or alias.name)
        elif node.module == "time":
            for alias in node.names:
                name = alias.name
                if ("time", name) in _WALL_CLOCK_CALLS:
                    self._wall_funcs.add(alias.asname or name)
                    if name in _HOT_CLOCK_NAMES:
                        self._hot_clock_funcs.add(alias.asname or name)
                elif name == "sleep":
                    self._sleep_funcs.add(alias.asname or name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_aliases.add(alias.asname or alias.name)
        elif node.module in ("numpy.random", "numpy"):
            for alias in node.names:
                if alias.name == "random":
                    self._np_random_aliases.add(alias.asname or alias.name)
                elif alias.name in _NP_RANDOM_ATTRS:
                    self._random_funcs.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- class scopes (RPR011 handler context) -------------------------------

    @staticmethod
    def _is_handler_class(node: ast.ClassDef) -> bool:
        """Whether a class is (or subclasses) an HTTP request handler."""
        if node.name.endswith(_HANDLER_BASE_SUFFIX):
            return True
        for base in node.bases:
            path = _dotted(base)
            if path and path[-1].endswith(_HANDLER_BASE_SUFFIX):
                return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_handler = self._is_handler_class(node)
        if is_handler:
            self._handler_depth += 1
        self.generic_visit(node)
        if is_handler:
            self._handler_depth -= 1

    # -- function scopes ----------------------------------------------------

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self._fn_stack.append(_scan_function(node))
        saved_depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = saved_depth
        self._fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPR004: mutable defaults -------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            )
            if mutable:
                self._emit(
                    default,
                    "RPR004",
                    "mutable default argument is shared across calls; "
                    "default to None and create inside the function",
                )

    # -- loops (context for RPR007, iteration for RPR002) --------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def _visit_comprehension_like(self, node) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_like
    visit_SetComp = _visit_comprehension_like
    visit_DictComp = _visit_comprehension_like
    visit_GeneratorExp = _visit_comprehension_like

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self._fn().set_names):
            self._emit(
                iter_node,
                "RPR002",
                "iteration over a set follows hash order; wrap the set "
                "in sorted() to fix the traversal",
            )
        elif _is_topo_mapping(iter_node):
            self._emit(
                iter_node,
                "RPR009",
                "iteration over a topology links/adjacency mapping "
                "follows lazy-creation (traffic) order; iterate "
                "sorted(...) so reports and checks are order-free",
            )

    # -- calls: RPR001 / RPR002 / RPR003 / RPR006 / RPR007 -------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng_and_clock(node)
        self._check_unordered_consumption(node)
        self._check_spec_picklability(node)
        self._check_instrument_fetch(node)
        self._check_handler_blocking(node)
        self.generic_visit(node)

    def _check_handler_blocking(self, node: ast.Call) -> None:
        """RPR011: simulation work or sleeps inside a request handler.

        An HTTP handler thread that sleeps or runs a campaign inline
        stalls every queued client behind it.  The sanctioned shapes are
        cache lookups, ``JobScheduler.submit`` (schedules onto the
        worker pool) and the scheduler's deadline-bounded condition
        waits — none of which this check matches.
        """
        if self._handler_depth == 0:
            return
        func = node.func
        blocked = None
        if isinstance(func, ast.Name):
            if func.id in self._sleep_funcs:
                blocked = f"{func.id}()"
            elif func.id == "execute_run":
                blocked = "execute_run()"
        else:
            path = _dotted(func)
            if len(path) >= 2:
                head, tail = path[0], path[-1]
                if tail == "sleep" and head in self._time_aliases:
                    blocked = f"{'.'.join(path)}()"
                elif tail == "execute_run":
                    blocked = f"{'.'.join(path)}()"
                elif tail in _ENGINE_RUN_ATTRS and any(
                    "engine" in part.lower() for part in path[:-1]
                ):
                    blocked = f"{'.'.join(path)}()"
        if blocked is not None:
            self._emit(
                node,
                "RPR011",
                f"blocking call {blocked} inside a request handler "
                "class stalls every queued client; answer from the "
                "cache or submit to the JobScheduler and return a "
                "job id",
            )

    def _check_rng_and_clock(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._random_funcs:
                self._emit(
                    node,
                    "RPR001",
                    f"unseeded RNG call {func.id}(); draw from a named "
                    "stream via sim.rng.stream(name) instead",
                )
            elif func.id in self._wall_funcs:
                self._emit(
                    node,
                    "RPR001",
                    f"wall-clock read {func.id}(); simulated time must "
                    "come from sim.now",
                )
                if self._kernel_scope and func.id in self._hot_clock_funcs:
                    self._emit_hot_clock(node, func.id)
            return
        path = _dotted(func)
        if len(path) < 2:
            return
        head, tail = path[0], path[-1]
        if head in self._random_aliases and head in _RANDOM_MODULES or (
            head in self._random_aliases
        ):
            self._emit(
                node,
                "RPR001",
                f"unseeded RNG call {'.'.join(path)}(); draw from a "
                "named stream via sim.rng.stream(name) instead",
            )
            return
        if head in self._datetime_aliases and (
            ("datetime", tail) in _WALL_CLOCK_CALLS
            or ("date", tail) in _WALL_CLOCK_CALLS
        ):
            self._emit(
                node,
                "RPR001",
                f"wall-clock read {'.'.join(path)}(); simulated time "
                "must come from sim.now",
            )
            return
        if head in self._time_aliases and ("time", tail) in _WALL_CLOCK_CALLS:
            self._emit(
                node,
                "RPR001",
                f"wall-clock read {'.'.join(path)}(); simulated time "
                "must come from sim.now",
            )
            if self._kernel_scope and tail in _HOT_CLOCK_NAMES:
                self._emit_hot_clock(node, ".".join(path))
            return
        if tail in _NP_RANDOM_ATTRS:
            if (
                (head in self._numpy_aliases and "random" in path)
                or head in self._np_random_aliases
            ):
                self._emit(
                    node,
                    "RPR001",
                    f"numpy RNG entry point {'.'.join(path)}(); all "
                    "randomness must flow through repro.sim.rng streams",
                )

    def _check_unordered_consumption(self, node: ast.Call) -> None:
        """RPR002/RPR003 at call sites: list/tuple/sum over unordered."""
        if not isinstance(node.func, ast.Name) or not node.args:
            return
        name = node.func.id
        arg = node.args[0]
        if name in _ORDER_INDEPENDENT_WRAPPERS:
            return
        set_names = self._fn().set_names
        if name in ("list", "tuple", "sum") and _is_set_expr(arg, set_names):
            self._emit(
                node,
                "RPR002",
                f"{name}() over a set materializes hash order; apply "
                "sorted() first",
            )
            return
        if name in ("list", "tuple") and _is_topo_mapping(arg):
            self._emit(
                node,
                "RPR009",
                f"{name}() over a topology links/adjacency mapping "
                "materializes lazy-creation order; apply sorted() first",
            )
            return
        if name in ("sum", "fsum"):
            target = arg
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                target = arg.generators[0].iter
            if _is_dict_view(target):
                self._emit(
                    node,
                    "RPR003",
                    "sum() over a dict view accumulates in insertion "
                    "order; iterate sorted(d.items()) so serial and "
                    "parallel runs agree bit-for-bit",
                )

    def _check_spec_picklability(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name not in _SPEC_CONSTRUCTORS:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Lambda):
                self._emit(
                    child,
                    "RPR006",
                    f"lambda inside {name}(...) cannot cross the "
                    "campaign worker-pool boundary; use a named "
                    "module-level function or a JSON scalar",
                )

    def _check_instrument_fetch(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _INSTRUMENT_METHODS:
            return
        owner_path = _dotted(func)
        if not any(part in _INSTRUMENT_OWNERS for part in owner_path[:-1]):
            return
        fn = self._fn()
        if self._loop_depth > 0 or fn.is_sim_process:
            self._emit(
                node,
                "RPR007",
                f"instrument fetch .{func.attr}() on a hot path; fetch "
                "once at construction time so the disabled-telemetry "
                "path stays allocation-free",
            )

    # -- RPR005: bad yields ---------------------------------------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        fn = self._fn()
        if fn.is_sim_process:
            value = node.value
            bad = value is None or isinstance(
                value, (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set)
            )
            if bad:
                shown = (
                    "a bare yield"
                    if value is None
                    else f"literal {ast.dump(value) if not isinstance(value, ast.Constant) else value.value!r}"
                )
                self._emit(
                    node,
                    "RPR005",
                    f"sim process yields {shown}; the kernel only "
                    "accepts Event/Process objects (use "
                    "sim.timeout(dt) to sleep)",
                )
        self.generic_visit(node)

    # -- RPR008: exception handling -------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                node,
                "RPR008",
                "bare except catches SimulationError, DeadlockError and "
                "WatchdogError; name the exceptions you mean",
            )
        elif self._swallows(node):
            names = self._handler_names(node.type)
            self._emit(
                node,
                "RPR008",
                f"except {'/'.join(names)} with a pass-only body "
                "swallows kernel failures; handle or re-raise",
            )
        if node.type is not None and self._swallows_fault(node):
            names = [
                n for n in self._handler_names(node.type)
                if n in _FAULT_SWALLOW_GUARDED
            ]
            self._emit(
                node,
                "RPR010",
                f"except {'/'.join(names)} neither re-raises nor records "
                "the fault; a swallowed hard failure makes a dead link "
                "look healthy (re-raise, or annotate a span/journal)",
            )
        self.generic_visit(node)

    @staticmethod
    def _handler_names(type_node: ast.AST) -> List[str]:
        nodes = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        names = []
        for n in nodes:
            path = _dotted(n)
            names.append(path[-1] if path else "?")
        return names

    def _swallows_fault(self, node: ast.ExceptHandler) -> bool:
        """RPR010: a hard-failure handler that hides the fault entirely.

        A handler catching :class:`LinkDeadError` or
        :class:`RetryExhaustedError` is fine when it re-raises (bare or
        chained) or records the fault through any annotation-shaped call
        (``span.note``, ``journal.append``, ``trace.log``,
        ``counter.inc``, ...); anything else silently converts a dead
        link into healthy-looking results.
        """
        if not any(
            name in _FAULT_SWALLOW_GUARDED
            for name in self._handler_names(node.type)
        ):
            return False
        for stmt in node.body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Raise):
                    return False
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _FAULT_RECORD_ATTRS
                ):
                    return False
        return True

    def _swallows(self, node: ast.ExceptHandler) -> bool:
        if any(name in _SWALLOW_GUARDED for name in self._handler_names(node.type)):
            return all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                or isinstance(stmt, ast.Continue)
                for stmt in node.body
            )
        return False


def run_rules(tree: ast.Module, path: str = "") -> List[RawFinding]:
    """All raw findings for one parsed module, in source order.

    ``path`` is the module's file path; it only matters for the
    path-scoped RPR012 (kernel packages) and may be left empty for
    snippets with no file identity.
    """
    visitor = RuleVisitor(path)
    visitor.visit(tree)
    return sorted(visitor.findings)
