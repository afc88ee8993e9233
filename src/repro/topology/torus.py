"""3D torus of point-to-point links with dimension-ordered routing.

The shape of the lattice-QCD machines contemporary with the paper
(APEnet and its kin): no central switch at all, every node owns six
directed links to its neighbors and messages are forwarded through
intermediate nodes' routers.  Routing is deterministic dimension-ordered
(x, then y, then z), taking the shorter ring direction and breaking
exact ties toward increasing coordinates — one fixed path per (src,
dst), so link hot spots are reproducible.

Hop accounting: each traversed link is one pipeline stage on a directed
``link.torus.*`` resource with that dimension's cable latency; every hop
except the last also pays the downstream router crossing
(``switch_latency``), while the final hop lands in the destination NIC
whose rx engine models ejection.  Neighbor exchanges therefore cross no
router at all — the point-to-point locality these machines were built
for — and sweep3d-style near-neighbor traffic stays cheap while
long-range pairs pay per-hop latency and contend on every intermediate
link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim import Stage
from .base import FabricSpec, Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

_AXES = ("x", "y", "z")


def auto_dims(n_nodes: int) -> Tuple[int, int, int]:
    """The most cubic ``dx <= dy <= dz`` factorization of ``n_nodes``.

    Deterministic in ``n_nodes`` alone: exhaustive over divisors,
    minimizing the spread ``dz - dx`` (then the diameter).  1024 ranks
    factor to (8, 8, 16).
    """
    if n_nodes < 1:
        raise ConfigurationError("torus needs at least one node")
    best: Optional[Tuple[int, int, int]] = None
    best_rank = None
    for dx in range(1, n_nodes + 1):
        if dx * dx * dx > n_nodes:
            break
        if n_nodes % dx:
            continue
        rest = n_nodes // dx
        dy = dx
        while dy * dy <= rest:
            if rest % dy == 0:
                dz = rest // dy
                rank = (dz - dx, dx // 2 + dy // 2 + dz // 2)
                if best_rank is None or rank < best_rank:
                    best, best_rank = (dx, dy, dz), rank
            dy += 1
    assert best is not None  # dx=1, dy=1, dz=n always qualifies
    return best


class TorusTopology(Topology):
    """3D torus over ``dims = (dx, dy, dz)`` with ``dx*dy*dz`` nodes.

    Node *i* sits at coordinates ``(i % dx, (i // dx) % dy,
    i // (dx*dy))``.  ``dim_latency`` optionally gives each dimension
    its own per-hop cable latency (e.g. longer Z cables in a rack-span
    ring); default is the fabric spec's cable latency everywhere.
    """

    kind = "torus"

    def __init__(
        self,
        sim: "Simulator",
        n_nodes: int,
        spec: "FabricSpec",
        dims: Optional[Sequence[int]] = None,
        dim_latency: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(sim, n_nodes, spec)
        self.dims: Tuple[int, int, int] = (
            tuple(int(d) for d in dims) if dims else auto_dims(n_nodes)
        )
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ConfigurationError(f"torus dims must be 3 positive ints: {self.dims}")
        dx, dy, dz = self.dims
        if dx * dy * dz != n_nodes:
            raise ConfigurationError(
                f"torus {dx}x{dy}x{dz} holds {dx * dy * dz} nodes, not {n_nodes}"
            )
        lat = (
            tuple(float(v) for v in dim_latency)
            if dim_latency
            else (spec.cable_latency,) * 3
        )
        if len(lat) != 3 or any(v < 0 for v in lat):
            raise ConfigurationError(f"bad per-dimension latencies: {lat}")
        self.dim_latency: Tuple[float, float, float] = lat

    # -- structure ---------------------------------------------------------

    def coords(self, node: int) -> Tuple[int, int, int]:
        """The (x, y, z) position of ``node``."""
        self._check(node)
        dx, dy, _ = self.dims
        return (node % dx, (node // dx) % dy, node // (dx * dy))

    def node_at(self, x: int, y: int, z: int) -> int:
        dx, dy, _ = self.dims
        return (z * dy + y) * dx + x

    @property
    def hops(self) -> int:
        """Diameter: worst-case traversed links."""
        return max(1, sum(d // 2 for d in self.dims))

    def max_route_stages(self) -> int:
        return self.hops

    def describe(self) -> str:
        dx, dy, dz = self.dims
        return f"3D torus {dx}x{dy}x{dz} ({self.n_nodes} nodes)"

    # -- routing -----------------------------------------------------------

    def _steps(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-ordered unit steps as (axis index, +1/-1) pairs."""
        here = list(self.coords(src))
        there = self.coords(dst)
        steps: List[Tuple[int, int]] = []
        for axis in range(3):
            size = self.dims[axis]
            forward = (there[axis] - here[axis]) % size
            if forward == 0:
                continue
            # Shorter ring direction; exact ties go forward (+).
            if 2 * forward <= size:
                steps.extend((axis, +1) for _ in range(forward))
            else:
                steps.extend((axis, -1) for _ in range(size - forward))
        return steps

    def _route(self, src: int, dst: int) -> List[Stage]:
        return self._stages_for(src, self._steps(src, dst))

    def _stages_for(self, src: int, steps: List[Tuple[int, int]]) -> List[Stage]:
        """Stage chain for a concrete step sequence starting at ``src``."""
        s = self.spec
        here = list(self.coords(src))
        stages: List[Stage] = []
        for i, (axis, sign) in enumerate(steps):
            x, y, z = here
            arrow = _AXES[axis] + ("+" if sign > 0 else "-")
            name = f"torus.{x}.{y}.{z}.{arrow}"
            last = i == len(steps) - 1
            # Every hop but the last enters the next node's router; the
            # final hop ends in the destination NIC's rx engine.
            crossing = 0.0 if last else s.switch_latency
            stages.append(
                Stage(
                    resource=self._link(f"link.{name}"),
                    bandwidth=s.link_bandwidth,
                    latency_out=self.dim_latency[axis] + crossing,
                    name=name,
                    switch_latency=crossing,
                )
            )
            here[axis] = (here[axis] + sign) % self.dims[axis]
        return stages

    # -- liveness (hard failures) ------------------------------------------

    def link_targets(self) -> List[str]:
        names: List[str] = []
        dx, dy, dz = self.dims
        for z in range(dz):
            for y in range(dy):
                for x in range(dx):
                    for axis in range(3):
                        if self.dims[axis] < 2:
                            continue
                        for sym in ("+", "-"):
                            names.append(
                                f"torus.{x}.{y}.{z}.{_AXES[axis]}{sym}"
                            )
        return sorted(names)

    def switch_ids(self) -> List[str]:
        ids = []
        dx, dy, dz = self.dims
        for z in range(dz):
            for y in range(dy):
                for x in range(dx):
                    ids.append(f"{x}.{y}.{z}")
        return sorted(ids)

    def switch_links(self, switch_id: str) -> List[str]:
        """All directed links in and out of the router at ``x.y.z``."""
        try:
            x, y, z = (int(part) for part in switch_id.split("."))
        except ValueError:
            raise ConfigurationError(
                f"torus router id must be 'x.y.z': {switch_id!r}"
            ) from None
        coord = (x, y, z)
        if any(not 0 <= coord[a] < self.dims[a] for a in range(3)):
            raise ConfigurationError(
                f"torus router {switch_id!r} outside {self.dims}"
            )
        names = []
        for axis in range(3):
            size = self.dims[axis]
            if size < 2:
                continue
            for sign, sym in ((+1, "+"), (-1, "-")):
                names.append(f"torus.{x}.{y}.{z}.{_AXES[axis]}{sym}")
                neighbor = list(coord)
                neighbor[axis] = (neighbor[axis] - sign) % size
                names.append(
                    f"torus.{neighbor[0]}.{neighbor[1]}.{neighbor[2]}"
                    f".{_AXES[axis]}{sym}"
                )
        return sorted(set(names))

    def _alternate_route(self, src: int, dst: int) -> Optional[List[Stage]]:
        """Dimension-ordered routing that may take the long way round.

        Per axis: try the preferred (shorter) ring direction first, then
        the opposite direction — the torus's only path diversity under
        deterministic dimension-ordered routing.  An axis with dead
        links in both directions makes the pair unroutable.
        """
        here = list(self.coords(src))
        there = self.coords(dst)
        steps: List[Tuple[int, int]] = []
        for axis in range(3):
            size = self.dims[axis]
            forward = (there[axis] - here[axis]) % size
            if forward == 0:
                continue
            prefer_plus = 2 * forward <= size
            order = ((+1, -1) if prefer_plus else (-1, +1))
            chosen = None
            for sign in order:
                hops = forward if sign > 0 else size - forward
                probe = list(here)
                alive = True
                for _ in range(hops):
                    x, y, z = probe
                    arrow = _AXES[axis] + ("+" if sign > 0 else "-")
                    if f"torus.{x}.{y}.{z}.{arrow}" in self.dead:
                        alive = False
                        break
                    probe[axis] = (probe[axis] + sign) % size
                if alive:
                    chosen = [(axis, sign)] * hops
                    break
            if chosen is None:
                return None
            steps.extend(chosen)
            here[axis] = there[axis]
        return self._stages_for(src, steps)

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> List[dict]:
        problems = super().check_invariants()
        for src, dst in sorted(self._routed):
            per_dim = [0, 0, 0]
            for axis, _ in self._steps(src, dst):
                per_dim[axis] += 1
            for axis in range(3):
                if per_dim[axis] > self.dims[axis] // 2:
                    problems.append({
                        "name": "minimal_route",
                        "message": (
                            f"route {src}->{dst} takes {per_dim[axis]} hops "
                            f"in {_AXES[axis]}, beyond the ring radius "
                            f"{self.dims[axis] // 2}"
                        ),
                        "details": {"src": src, "dst": dst, "axis": _AXES[axis]},
                    })
        return problems
