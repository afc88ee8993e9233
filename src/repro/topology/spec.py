"""Campaign-sweepable topology descriptions.

A :class:`TopologySpec` is to fabrics what
:class:`~repro.faults.FaultPlan` is to fault injection: every field is a
JSON scalar, so a spec rides inside a
:class:`~repro.campaign.RunSpec` as ``topology.``-prefixed dotted axes
(``topology.kind``, ``topology.radix``, ``topology.dims``, ...) and
crosses multiprocessing boundaries unchanged.  Compound values use
compact strings — ``dims="8x8x16"``, ``dim_latency="0.1,0.1,0.3"`` —
parsed here, once, at validation time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator
    from .base import FabricSpec, Topology

#: Topology kinds a spec may name.
KINDS = ("crossbar", "fattree", "torus")


@dataclass(frozen=True)
class TopologySpec:
    """Declarative fabric shape (validated eagerly, JSON scalars only).

    The default spec is the plain single-chassis crossbar, which keeps
    ``Machine(...)`` with no topology argument bit-identical to every
    pre-topology golden result.
    """

    #: One of :data:`KINDS`.
    kind: str = "crossbar"
    #: Switch port count (fat tree only; even, >= 4).
    radix: int = 0
    #: Fat-tree depth 1..3; 0 picks the shallowest tree that fits.
    levels: int = 0
    #: Torus shape as ``"8x8x16"``; empty auto-factors near-cubically.
    dims: str = ""
    #: Torus per-dimension hop latencies (us) as ``"0.1,0.1,0.3"``;
    #: empty uses the fabric spec's cable latency in every dimension.
    dim_latency: str = ""

    def __post_init__(self) -> None:
        # Types first: a number where a string belongs would otherwise
        # surface as an AttributeError from the parsers below.
        for name in ("kind", "dims", "dim_latency"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"topology {name}={value!r} must be a string"
                )
        for name in ("radix", "levels"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"topology {name}={value!r} must be an integer"
                )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.kind == "fattree":
            if self.radix < 4 or self.radix % 2:
                raise ConfigurationError(
                    f"fat tree needs an even radix >= 4, got {self.radix}"
                )
            if self.levels not in (0, 1, 2, 3):
                raise ConfigurationError(
                    f"fat tree levels must be 0 (auto) or 1..3: {self.levels}"
                )
        else:
            if self.radix or self.levels:
                raise ConfigurationError(
                    f"radix/levels only apply to fat trees, not {self.kind!r}"
                )
        if self.kind == "torus":
            self.dims_tuple()  # validate eagerly
            self.dim_latency_tuple()
        elif self.dims or self.dim_latency:
            raise ConfigurationError(
                f"dims/dim_latency only apply to tori, not {self.kind!r}"
            )

    # -- parsed views --------------------------------------------------------

    def dims_tuple(self) -> Optional[Tuple[int, int, int]]:
        """Parsed torus shape, or ``None`` for auto-factorization."""
        if not self.dims:
            return None
        parts = self.dims.lower().split("x")
        try:
            vals = tuple(int(p) for p in parts)
        except ValueError:
            vals = ()
        if len(vals) != 3 or any(v < 1 for v in vals):
            raise ConfigurationError(
                f"torus dims must look like '8x8x16', got {self.dims!r}"
            )
        return vals

    def dim_latency_tuple(self) -> Optional[Tuple[float, float, float]]:
        """Parsed per-dimension latencies, or ``None`` for the default."""
        if not self.dim_latency:
            return None
        try:
            vals = tuple(float(p) for p in self.dim_latency.split(","))
        except ValueError:
            vals = ()
        if len(vals) != 3 or not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ConfigurationError(
                "dim_latency must be three finite non-negative numbers "
                f"like '0.1,0.1,0.3', got {self.dim_latency!r}"
            )
        return vals

    # -- construction --------------------------------------------------------

    def build(self, sim: "Simulator", n_nodes: int, fabric: "FabricSpec") -> "Topology":
        """Instantiate this topology on ``sim`` for ``n_nodes`` nodes."""
        if self.kind == "fattree":
            from .fattree import FatTreeTopology

            return FatTreeTopology(
                sim, n_nodes, fabric, radix=self.radix, levels=self.levels
            )
        if self.kind == "torus":
            from .torus import TorusTopology

            return TorusTopology(
                sim,
                n_nodes,
                fabric,
                dims=self.dims_tuple(),
                dim_latency=self.dim_latency_tuple(),
            )
        from .base import CrossbarTopology

        return CrossbarTopology(sim, n_nodes, fabric)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready canonical form (field order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologySpec":
        """Build a spec from a (possibly partial) field mapping."""
        unknown = data.keys() - _FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown topology fields {sorted(unknown)}; "
                f"valid: {sorted(_FIELDS)}"
            )
        return cls(**data)

    def describe(self) -> str:
        """Compact non-default-fields summary for labels and journals."""
        defaults = TopologySpec()
        parts = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)
        ]
        return "TopologySpec(" + ", ".join(parts) + ")" if parts else "TopologySpec()"


#: The field names :meth:`TopologySpec.from_dict` accepts.
_FIELDS = frozenset(f.name for f in fields(TopologySpec))
