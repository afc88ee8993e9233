"""Declarative campaign specifications.

A :class:`CampaignSpec` names a parameter sweep — a cartesian ``grid``
over network, node count, PPN, application and application arguments,
plus optional explicit ``points`` — and expands it into individual
:class:`RunSpec` measurement runs (one per grid point per repetition).

A :class:`RunSpec` is the atom of campaign execution: a fully
declarative, picklable, JSON-serializable description of one simulated
measurement.  Its :attr:`RunSpec.key` is a stable content hash of the
spec plus the ``repro`` package version, which keys the on-disk result
cache and the run journal — two campaigns agree on a key exactly when
they would produce bit-identical results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..mpi.machine import NETWORKS
from ..topology import TopologySpec
from ..version import __version__

#: RunSpec fields a grid/point is allowed to set directly.
_RUN_FIELDS = ("app", "network", "nodes", "ppn", "fabric_radix", "ib_progress_thread")

#: Prefix for sweeping application arguments, e.g. ``app_args.size``.
_ARG_PREFIX = "app_args."

#: Prefix for sweeping fault-plan knobs, e.g. ``fault.ber``.
_FAULT_PREFIX = "fault."

#: Prefix for sweeping topology fields, e.g. ``topology.kind``.
_TOPO_PREFIX = "topology."

#: ``json.dumps``'s string encoder (``ensure_ascii``), for the key text.
_string = json.encoder.encode_basestring_ascii


def _integer(name: str, value: Any) -> int:
    """An int field's value: integral floats collapse (``nodes=2.0`` is
    2); bools, strings and fractions are refused, never bent."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{name}={value!r} must be an integer")


def _canon_pairs(
    prefix: str, pairs: Iterable[Tuple[str, Any]]
) -> Tuple[Tuple[str, Any], ...]:
    """Checked, scalar-canonicalized ``(name, value)`` pairs, sorted.

    ``ber=0`` and ``ber=0.0`` describe the same simulation, so they must
    hash to the same cache key — otherwise the serve layer would run (and
    fail to coalesce) duplicate jobs for one question.  Integral floats
    become ints; bools are left alone (``True != 1`` as a knob value).
    Sorting here (not just in ``to_dict``) makes *spec equality* — and
    therefore in-flight coalescing — agree with cache-key equality even
    for specs built with hand-ordered tuples.
    """
    canon = []
    for name, value in pairs:
        if not isinstance(name, str):
            raise ConfigurationError(
                f"campaign parameter {prefix}{name!r} is not named by a string"
            )
        if isinstance(value, float):
            if value.is_integer():
                value = int(value)
            # Python's json parses NaN/Infinity; no knob takes one.
            elif not math.isfinite(value):
                raise ConfigurationError(
                    f"campaign parameter {prefix}{name}={value!r} "
                    "is not a finite number"
                )
        elif not (isinstance(value, (str, int)) or value is None):
            raise ConfigurationError(
                f"campaign parameter {prefix}{name}={value!r} is not a JSON scalar"
            )
        canon.append((name, value))
    canon.sort()
    return tuple(canon)


def _scalar(value: Any) -> str:
    """``json.dumps(value)`` for a canonical pair value."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return float.__repr__(value)


def _object(pairs: Tuple[Tuple[str, Any], ...]) -> str:
    """``json.dumps(dict(pairs), sort_keys=True, separators=(",", ":"))``
    for canonical pairs; a repeated name keeps its last value, as
    ``dict(sorted(pairs))`` does."""
    if not pairs:
        return "{}"
    items = dict(pairs).items()
    return "{" + ",".join([f"{_string(k)}:{_scalar(v)}" for k, v in items]) + "}"


def _items(name: str, mapping: Any) -> Tuple[Tuple[str, Any], ...]:
    """A request's ``app_args``/``faults``/``topology`` mapping as pairs."""
    if not mapping:
        return ()
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"{name} must be a mapping")
    return tuple(mapping.items())


@dataclass(frozen=True)
class RunSpec:
    """One declarative measurement run (app x network x shape x seed).

    Field values must be plain data — no lambdas, closures or live
    objects — so the spec pickles for parallel workers and hashes into
    a stable cache key (``repro-lint`` rule RPR006 enforces this at
    construction sites).
    """

    app: str
    network: str
    nodes: int
    ppn: int = 1
    seed: int = 0
    #: Application arguments as sorted ``(name, value)`` pairs so the
    #: spec stays hashable; use :attr:`args` for the dict view.
    app_args: Tuple[Tuple[str, Any], ...] = ()
    #: Optional what-if fabric: shorthand for a two-level fat tree of
    #: this radix (see :attr:`topology_spec`).
    fabric_radix: Optional[int] = None
    #: InfiniBand asynchronous progress thread (ablation knob).
    ib_progress_thread: bool = False
    #: Fault-plan overrides as sorted ``(field, value)`` pairs — the
    #: degraded-fabric axes (see :class:`repro.faults.FaultPlan`).  Empty
    #: means a pristine machine (no injector attached at all).
    faults: Tuple[Tuple[str, Any], ...] = ()
    #: Topology overrides as sorted ``(field, value)`` pairs (see
    #: :class:`repro.topology.TopologySpec`).  Empty means the default
    #: single-chassis crossbar (or the ``fabric_radix`` tree).
    topology: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # The one check of a spec's values, whoever built it.  It also
        # canonicalizes, so semantically identical specs (hand-ordered
        # tuples, nodes=2.0, ber=0 vs ber=0.0) compare equal and share one
        # cache key, or the serve layer would fail to coalesce identical
        # in-flight work.  The dataclass is frozen, so canonical values go
        # back through object.__setattr__, even when the canonical tuple
        # compares equal to the given one: 0.0 == 0 and True == 1, but
        # their keys differ.
        if not isinstance(self.app, str):
            raise ConfigurationError(f"app={self.app!r} must be a string")
        if self.network not in NETWORKS:
            raise ConfigurationError(
                f"unknown network {self.network!r}; expected one of {NETWORKS}"
            )
        for name in ("nodes", "ppn", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _integer(name, value))
        radix = self.fabric_radix
        if radix is not None and type(radix) is not int:
            object.__setattr__(self, "fabric_radix", _integer("fabric_radix", radix))
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.ppn < 1:
            raise ConfigurationError("need at least one process per node")
        if not isinstance(self.ib_progress_thread, bool):
            raise ConfigurationError(
                f"ib_progress_thread={self.ib_progress_thread!r} must be a bool"
            )
        for name, prefix in (
            ("app_args", _ARG_PREFIX),
            ("faults", _FAULT_PREFIX),
            ("topology", _TOPO_PREFIX),
        ):
            pairs = getattr(self, name)
            if pairs or type(pairs) is not tuple:
                object.__setattr__(self, name, _canon_pairs(prefix, pairs))
        if self.topology and self.fabric_radix is not None:
            raise ConfigurationError(
                "set either topology.* axes or fabric_radix, not both"
            )
        # Validate knob names and ranges eagerly, at declaration time.
        if self.faults:
            self.fault_plan
        if self.topology or self.fabric_radix is not None:
            self.topology_spec

    @property
    def args(self) -> Dict[str, Any]:
        """Application arguments as a plain dict."""
        return dict(self.app_args)

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The run's :class:`~repro.faults.FaultPlan`, or ``None``."""
        if not self.faults:
            return None
        return FaultPlan.from_dict(dict(self.faults))

    @property
    def topology_spec(self) -> Optional[TopologySpec]:
        """The run's :class:`~repro.topology.TopologySpec`, or ``None``.

        ``fabric_radix=r`` maps to a two-level fat tree of ``r``-port
        switches, oversubscribed when the nodes outgrow it.
        """
        if self.fabric_radix is not None:
            return TopologySpec(kind="fattree", radix=self.fabric_radix, levels=2)
        if not self.topology:
            return None
        return TopologySpec.from_dict(dict(self.topology))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready canonical form (sorted app_args)."""
        return {
            "app": self.app,
            "app_args": dict(sorted(self.app_args)),
            "network": self.network,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "seed": self.seed,
            "fabric_radix": self.fabric_radix,
            "ib_progress_thread": self.ib_progress_thread,
            "faults": dict(sorted(self.faults)),
            "topology": dict(sorted(self.topology)),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """The spec :meth:`to_dict` (or a request body) describes.

        Values pass through as sent: the constructor checks them once.
        A key :meth:`to_dict` does not write is refused, so a typo never
        answers a different question under that question's key.
        """
        if not data.keys() <= _SPEC_KEYS:
            raise ConfigurationError(
                f"unknown run spec keys {sorted(data.keys() - _SPEC_KEYS)}; "
                f"valid: {sorted(_SPEC_KEYS)}"
            )
        return cls(
            app=data["app"],
            network=data["network"],
            nodes=data["nodes"],
            ppn=data.get("ppn", 1),
            seed=data.get("seed", 0),
            app_args=_items("app_args", data.get("app_args")),
            fabric_radix=data.get("fabric_radix"),
            ib_progress_thread=data.get("ib_progress_thread", False),
            faults=_items("faults", data.get("faults")),
            topology=_items("topology", data.get("topology")),
        )

    @property
    def key(self) -> str:
        """Stable content hash of this run plus the repro version.

        Any change to the spec *or* to the package version (and hence
        potentially to the model) yields a new key, so stale cache
        entries can never be mistaken for current results.

        The hash is over ``json.dumps({"version": ..., "run":
        self.to_dict()}, sort_keys=True, separators=(",", ":"))``,
        written here straight from the canonical fields, byte for byte
        (the reference derivation lives in the tests).  Memoized per
        instance: the serve daemon derives the key on every request, and
        the spec is frozen so it cannot go stale.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        radix = self.fabric_radix
        text = (
            f'{{"run":{{"app":{_string(self.app)}'
            f',"app_args":{_object(self.app_args)}'
            f',"fabric_radix":{"null" if radix is None else int.__repr__(radix)}'
            f',"faults":{_object(self.faults)}'
            f',"ib_progress_thread":{"true" if self.ib_progress_thread else "false"}'
            f',"network":{_string(self.network)}'
            f',"nodes":{int.__repr__(self.nodes)}'
            f',"ppn":{int.__repr__(self.ppn)}'
            f',"seed":{int.__repr__(self.seed)}'
            f',"topology":{_object(self.topology)}'
            f'}},"version":{_string(__version__)}}}'
        )
        digest = hashlib.sha256(text.encode()).hexdigest()[:32]
        object.__setattr__(self, "_key", digest)
        return digest

    def label(self) -> str:
        """Compact human-readable identity for journals and logs."""
        args = ",".join(f"{k}={v}" for k, v in self.app_args)
        app = f"{self.app}({args})" if args else self.app
        text = f"{app} {self.network} {self.nodes}n x{self.ppn}ppn seed={self.seed}"
        if self.faults:
            knobs = ",".join(f"{k}={v}" for k, v in self.faults)
            text += f" faults[{knobs}]"
        if self.topology:
            knobs = ",".join(f"{k}={v}" for k, v in self.topology)
            text += f" topo[{knobs}]"
        return text


#: The keys :meth:`RunSpec.to_dict` writes, the only ones ``from_dict`` takes.
_SPEC_KEYS = frozenset(RunSpec("app", "ib", 1).to_dict())


def _point_to_spec(point: Dict[str, Any], seed: int) -> RunSpec:
    """Build one RunSpec from a flat parameter dict (dotted app args)."""
    fields: Dict[str, Any] = {}
    args: Dict[str, Any] = {}
    faults: Dict[str, Any] = {}
    topology: Dict[str, Any] = {}
    for name, value in point.items():
        if name.startswith(_ARG_PREFIX):
            args[name[len(_ARG_PREFIX):]] = value
        elif name.startswith(_FAULT_PREFIX):
            faults[name[len(_FAULT_PREFIX):]] = value
        elif name.startswith(_TOPO_PREFIX):
            topology[name[len(_TOPO_PREFIX):]] = value
        elif name == "app_args":
            if not isinstance(value, dict):
                raise ConfigurationError("app_args must be a mapping")
            args.update(value)
        elif name == "faults":
            if not isinstance(value, dict):
                raise ConfigurationError("faults must be a mapping")
            faults.update(value)
        elif name == "topology":
            if not isinstance(value, dict):
                raise ConfigurationError("topology must be a mapping")
            topology.update(value)
        elif name in _RUN_FIELDS:
            fields[name] = value
        else:
            raise ConfigurationError(
                f"unknown campaign parameter {name!r}; expected one of "
                f"{_RUN_FIELDS}, {_ARG_PREFIX}<name>, {_FAULT_PREFIX}<knob> "
                f"or {_TOPO_PREFIX}<field>"
            )
    if "app" not in fields:
        raise ConfigurationError("every campaign point needs an 'app'")
    if "network" not in fields:
        raise ConfigurationError("every campaign point needs a 'network'")
    fields.setdefault("nodes", 1)
    return RunSpec(
        seed=seed,
        app_args=tuple(args.items()),
        faults=tuple(faults.items()),
        topology=tuple(topology.items()),
        **fields,
    )


@dataclass
class CampaignSpec:
    """A named sweep: base parameters, a cartesian grid, explicit points.

    ``base`` holds defaults applied to every run (e.g. the app and its
    fixed arguments); ``grid`` maps parameter names to value lists and
    expands to their cartesian product; ``points`` appends explicit
    parameter dicts (each merged over ``base``) for irregular sweeps.
    Application arguments are addressed with dotted names
    (``app_args.size``) or a nested ``app_args`` mapping.  Every
    expanded point runs ``repetitions`` times with seeds ``seed_base``,
    ``seed_base + 1``, ... — the paper's four-repetition methodology.
    """

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)
    repetitions: int = 1
    seed_base: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign needs a name")
        if self.repetitions < 1:
            raise ConfigurationError("need at least one repetition")
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"grid axis {axis!r} must be a non-empty list"
                )

    def expand(self) -> List[RunSpec]:
        """All runs, in deterministic order (grid order, reps innermost)."""
        specs: List[RunSpec] = []
        axes = sorted(self.grid)
        if self.grid or not self.points:
            # An empty grid with no explicit points runs the base alone;
            # with explicit points, only the points run.
            for combo in itertools.product(*(self.grid[a] for a in axes)):
                point = dict(self.base)
                point.update(dict(zip(axes, combo)))
                specs.extend(self._repeat(point))
        for extra in self.points:
            point = dict(self.base)
            point.update(extra)
            specs.extend(self._repeat(point))
        if not specs:
            raise ConfigurationError(
                f"campaign {self.name!r} expands to zero runs"
            )
        return specs

    def run_count(self) -> int:
        """How many runs :meth:`expand` returns, counted without building
        them: the grid's product (the base alone when there is no grid
        and no points) plus the points, times the repetitions."""
        grid = 0
        if self.grid or not self.points:
            grid = math.prod(len(values) for values in self.grid.values())
        return (grid + len(self.points)) * self.repetitions

    def _repeat(self, point: Dict[str, Any]) -> Iterable[RunSpec]:
        return (
            _point_to_spec(point, seed=self.seed_base + rep)
            for rep in range(self.repetitions)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "points": [dict(p) for p in self.points],
            "repetitions": self.repetitions,
            "seed_base": self.seed_base,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        unknown = set(data) - {
            "name", "base", "grid", "points", "repetitions", "seed_base"
        }
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec keys: {sorted(unknown)}"
            )
        return cls(
            name=data.get("name", ""),
            base=dict(data.get("base") or {}),
            grid={k: list(v) for k, v in (data.get("grid") or {}).items()},
            points=[dict(p) for p in (data.get("points") or [])],
            repetitions=int(data.get("repetitions", 1)),
            seed_base=int(data.get("seed_base", 0)),
        )

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        """Load a campaign from a JSON file (see EXPERIMENTS.md)."""
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad campaign file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"campaign file {path} must hold an object")
        return cls.from_dict(data)

