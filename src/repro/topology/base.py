"""Topology base class, the single-chassis crossbar and wire parameters.

:class:`FabricSpec` is the technology parameter set (link bandwidth,
cable and switch latency, MTU) every topology consumes.  A
:class:`Topology` owns the directed links of a fabric as named
:class:`~repro.sim.FifoResource` objects and answers one question for
the NIC models: :meth:`~Topology.wire_stages` — the pipeline stages a
message from ``src`` to ``dst`` occupies, one per traversed link.
Routing must be a pure deterministic function of (src, dst): both era
technologies use source-routed / deterministic tables, and the repro's
same-seed bit-identity contract depends on it.  Resource tiebreak keys
ride in from :func:`repro.sim.transfer`, which stamps each stage's
grant with ``(message key, stage index)`` for the race sanitizer.

Inter-switch and torus links are created lazily on first use and
registered under ``link.*`` resource names (so occupancy shows up as
``resource.link.*`` telemetry); node up/downlinks keep their historical
``up{i}`` / ``down{i}`` names, which golden tests pin.

:meth:`Topology.wire_stages` caches each pair's primary route, since
routing is a pure function of (src, dst); installed migrations are
still served first.

:meth:`Topology.check_invariants` audits a bounded sample of the routes
a run actually used: repeated lookups must return identical resource
chains, every cached route must equal a fresh one, every stage resource
must be registered with the topology, and hop counts must stay within
the topology's own bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConfigurationError, NetworkError
from ..sim import FifoResource, Stage

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

#: Routed (src, dst) pairs remembered for end-of-run invariant checks.
#: Bounded so all-to-all traffic at 1024+ ranks cannot hoard memory.
ROUTE_SAMPLE_LIMIT = 512

#: Primary routes cached by :meth:`Topology.wire_stages`.  Past the
#: limit, routes are recomputed per call: all-to-all at 1024 ranks would
#: otherwise keep a million stage lists alive.
ROUTE_CACHE_LIMIT = 8192


@dataclass(frozen=True)
class FabricSpec:
    """Wire-level parameters of a fabric technology.

    ``link_bandwidth`` is the usable payload bandwidth of one link
    direction in bytes/us (MB/s): 4X InfiniBand signals at 10 Gb/s with
    8b/10b coding for 8 Gb/s of data (1000 MB/s) less packet overheads;
    Elan-4 links carry about 1.3 GB/s of payload each way.
    """

    link_bandwidth: float
    #: Propagation + SerDes latency of one cable hop (us).
    cable_latency: float
    #: Switch crossing latency (us).
    switch_latency: float
    #: Packet/MTU size used as the pipelining chunk (bytes).
    mtu: int

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if self.mtu < 64:
            raise ConfigurationError(f"unrealistic MTU: {self.mtu}")
        if self.cable_latency < 0 or self.switch_latency < 0:
            raise ConfigurationError("latencies must be non-negative")


class Topology:
    """Base class: a set of nodes joined by directed FIFO links."""

    #: Campaign-facing kind tag (matches ``TopologySpec.kind``).
    kind = "abstract"

    def __init__(self, sim: "Simulator", n_nodes: int, spec: "FabricSpec") -> None:
        if n_nodes < 1:
            raise ConfigurationError("fabric needs at least one node")
        self.sim = sim
        self.n_nodes = n_nodes
        self.spec = spec
        #: Every link resource of the fabric, by resource name.  Node
        #: links are registered eagerly; switch-to-switch links appear
        #: on first route that crosses them (deterministic, since
        #: routing and traffic are).
        self.links: Dict[str, FifoResource] = {}
        #: Insertion-ordered sample of routed (src, dst) pairs.
        self._routed: Dict[Tuple[int, int], None] = {}
        #: Liveness mask: stage names of links currently dead (hard
        #: faults).  Insertion-ordered dict-as-set for determinism.
        self.dead: Dict[str, None] = {}
        #: Installed failover routes per (src, dst) — APM-style path
        #: migrations that :meth:`wire_stages` serves instead of the
        #: primary route.
        self._migrations: Dict[Tuple[int, int], List[Stage]] = {}
        #: Primary routes by (src, dst), as :meth:`_route` built them.
        self._routes: Dict[Tuple[int, int], List[Stage]] = {}
        self._target_cache: Optional[FrozenSet[str]] = None

    # -- link bookkeeping --------------------------------------------------

    def _link(self, name: str) -> FifoResource:
        """The directed link resource called ``name`` (created on demand)."""
        res = self.links.get(name)
        if res is None:
            res = FifoResource(self.sim, name=name)
            self.links[name] = res
        return res

    def _register(self, res: FifoResource) -> FifoResource:
        """Register an eagerly-created link under its resource name."""
        self.links[res.name] = res
        return res

    # -- liveness (hard failures) ------------------------------------------

    def link_targets(self) -> List[str]:
        """Every stage name a fault plan may target, sorted.

        Full structural enumeration (not just links traffic happened to
        create), so eager target validation can tell a typo from a link
        that merely has not carried bytes yet.
        """
        raise NotImplementedError

    def _target_set(self) -> FrozenSet[str]:
        if self._target_cache is None:
            self._target_cache = frozenset(self.link_targets())
        return self._target_cache

    def switch_ids(self) -> List[str]:
        """Every switch/router id ``switch_down`` may target, sorted."""
        raise NotImplementedError

    def switch_links(self, switch_id: str) -> List[str]:
        """Stage names of every link attached to ``switch_id`` (sorted).

        Killing a switch kills all of them — both directions, including
        neighbors' links pointing into it.
        """
        raise NotImplementedError

    def link_alive(self, name: str) -> bool:
        """Whether the named link is currently live."""
        return name not in self.dead

    def kill_link(self, name: str) -> bool:
        """Mark one link dead; returns False if it already was.

        Installed migrations crossing the newly dead link are evicted
        (sorted order), so their pairs re-migrate on next failure.
        """
        if name not in self._target_set():
            raise NetworkError(f"cannot kill unknown link {name!r}")
        if name in self.dead:
            return False
        self.dead[name] = None
        stale = [
            pair for pair in sorted(self._migrations)
            if any(st.name == name for st in self._migrations[pair])
        ]
        for pair in stale:
            del self._migrations[pair]
        return True

    def revive_link(self, name: str) -> bool:
        """Clear one link's dead mark; returns False if it was live.

        Migrated pairs do *not* fail back — APM semantics: a migrated
        path stays migrated until something kills it too.
        """
        if name not in self.dead:
            return False
        del self.dead[name]
        return True

    def route_alive(self, stages: List[Stage]) -> bool:
        """Whether no stage of ``stages`` crosses a dead link."""
        for st in stages:
            if st.name in self.dead:
                return False
        return True

    def _alternate_route(self, src: int, dst: int) -> Optional[List[Stage]]:
        """Shape-specific path diversity around dead links; None if none.

        Candidates are tried in a deterministic order that is a pure
        function of (src, dst, liveness mask) — the failover half of the
        bit-identity contract.
        """
        return None

    def migrate(self, src: int, dst: int) -> Optional[List[Stage]]:
        """Install (or confirm) a live route for (src, dst).

        Returns the stages subsequent :meth:`wire_stages` calls for the
        pair will serve, or None when no live path exists.  A live
        primary route (e.g. after a flap revived the link before
        detection finished) is returned without installing a migration.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        current = self._migrations.get((src, dst))
        if current is not None and self.route_alive(current):
            return current
        primary = self._route(src, dst)
        if self.route_alive(primary):
            return primary
        alternate = self._alternate_route(src, dst)
        if alternate is None:
            return None
        self._migrations[(src, dst)] = alternate
        return alternate

    # -- routing -----------------------------------------------------------

    def wire_stages(self, src: int, dst: int) -> List[Stage]:
        """Pipeline stages for the wire portion of a src -> dst message.

        Same-node (NIC loopback) paths return an empty list: the message
        never leaves the adapter, which is how both era MPI stacks
        handled intra-node traffic on these NICs.  The returned list may
        be shared between calls; callers must not mutate it.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        pair = (src, dst)
        if len(self._routed) < ROUTE_SAMPLE_LIMIT:
            self._routed[pair] = None
        if self._migrations:
            migrated = self._migrations.get(pair)
            if migrated is not None:
                return migrated
        route = self._routes.get(pair)
        if route is None:
            route = self._route(src, dst)
            if len(self._routes) < ROUTE_CACHE_LIMIT:
                self._routes[pair] = route
        return route

    def _route(self, src: int, dst: int) -> List[Stage]:
        """The deterministic stage chain for distinct, in-range nodes."""
        raise NotImplementedError

    def path_latency(self, src: int, dst: int) -> float:
        """Pure propagation latency of the path (no serialization)."""
        return sum(st.latency_out for st in self.wire_stages(src, dst))

    @property
    def hops(self) -> int:
        """Worst-case switch crossings between two distinct nodes."""
        raise NotImplementedError

    def max_route_stages(self) -> int:
        """Upper bound on the stage count of any route."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable topology summary for reports."""
        return f"{self.kind} ({self.n_nodes} nodes)"

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise NetworkError(f"node {node} outside fabric of {self.n_nodes}")

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> List[dict]:
        """Topology-level end-of-run checks over the sampled routes.

        Returns plain problem dicts (``name``/``message``/``details``)
        like the NIC and MPI-impl hooks; aggregated by
        :func:`repro.analysis.check_invariants` under the ``topology``
        subsystem.
        """
        problems: List[dict] = []
        bound = self.max_route_stages()
        for (src, dst), cached in sorted(self._routes.items()):
            if cached != self._route(src, dst):
                problems.append({
                    "name": "route_cache_fresh",
                    "message": (
                        f"cached route {src}->{dst} differs from a fresh "
                        "route computation"
                    ),
                    "details": {"src": src, "dst": dst},
                })
        for src, dst in sorted(self._routed):
            first = [st.resource for st in self._route(src, dst)]
            second = [st.resource for st in self._route(src, dst)]
            if first != second:
                problems.append({
                    "name": "route_deterministic",
                    "message": f"route {src}->{dst} changed between lookups",
                    "details": {"src": src, "dst": dst},
                })
                continue
            stages = self._route(src, dst)
            if len(stages) > bound:
                problems.append({
                    "name": "hop_bound",
                    "message": (
                        f"route {src}->{dst} crosses {len(stages)} links, "
                        f"beyond the topology bound of {bound}"
                    ),
                    "details": {"src": src, "dst": dst, "stages": len(stages)},
                })
            for st in stages:
                res = st.resource
                if res is not None and self.links.get(res.name) is not res:
                    problems.append({
                        "name": "links_closed",
                        "message": (
                            f"route {src}->{dst} uses unregistered link "
                            f"{res.name or 'anonymous'!r}"
                        ),
                        "details": {"src": src, "dst": dst, "link": res.name},
                    })
        # Installed failover routes must avoid every dead link ("no
        # route crosses a dead link"): a migration is the route traffic
        # actually uses, so a dead stage here is a live routing bug.
        # Primary routes of pairs whose traffic predated the kill are
        # legitimately stale and not audited.
        for pair in sorted(self._migrations):
            stages = self._migrations[pair]
            crossed = [st.name for st in stages if st.name in self.dead]
            if crossed:
                problems.append({
                    "name": "route_avoids_dead",
                    "message": (
                        f"migrated route {pair[0]}->{pair[1]} crosses "
                        f"dead link(s) {crossed}"
                    ),
                    "details": {
                        "src": pair[0], "dst": pair[1], "dead": crossed,
                    },
                })
            for st in stages:
                res = st.resource
                if res is not None and self.links.get(res.name) is not res:
                    problems.append({
                        "name": "links_closed",
                        "message": (
                            f"migrated route {pair[0]}->{pair[1]} uses "
                            f"unregistered link {res.name or 'anonymous'!r}"
                        ),
                        "details": {
                            "src": pair[0], "dst": pair[1], "link": res.name,
                        },
                    })
        return problems


class CrossbarTopology(Topology):
    """Single-switch fabric connecting ``n_nodes`` nodes.

    Both test-bed partitions attach every node to one chassis (the
    Voltaire ISR 9600 and the Quadrics QS5A both have enough ports for
    32 nodes): each node owns a duplex link — an *uplink* (node ->
    switch) and a *downlink* (switch -> node) — and a message from A to
    B occupies A's uplink and B's downlink with the switch crossing
    adding latency.  Output contention (many senders to one receiver)
    emerges naturally from the FIFO downlink resource.
    """

    kind = "crossbar"

    def __init__(self, sim: "Simulator", n_nodes: int, spec: "FabricSpec") -> None:
        super().__init__(sim, n_nodes, spec)
        self.uplinks: List[FifoResource] = [
            self._register(FifoResource(sim, name=f"up{i}"))
            for i in range(n_nodes)
        ]
        self.downlinks: List[FifoResource] = [
            self._register(FifoResource(sim, name=f"down{i}"))
            for i in range(n_nodes)
        ]

    @property
    def hops(self) -> int:
        return 1

    def max_route_stages(self) -> int:
        return 2

    def describe(self) -> str:
        return f"crossbar ({self.n_nodes} nodes, 1 chassis)"

    def link_targets(self) -> List[str]:
        names = [f"up{i}" for i in range(self.n_nodes)]
        names += [f"down{i}" for i in range(self.n_nodes)]
        return sorted(names)

    def switch_ids(self) -> List[str]:
        return ["x0"]

    def switch_links(self, switch_id: str) -> List[str]:
        if switch_id != "x0":
            raise NetworkError(f"crossbar has one switch, 'x0': {switch_id!r}")
        return self.link_targets()

    def _route(self, src: int, dst: int) -> List[Stage]:
        s = self.spec
        return [
            Stage(
                resource=self.uplinks[src],
                bandwidth=s.link_bandwidth,
                overhead=0.0,
                latency_out=s.cable_latency + s.switch_latency,
                name=f"up{src}",
                switch_latency=s.switch_latency,
            ),
            Stage(
                resource=self.downlinks[dst],
                bandwidth=s.link_bandwidth,
                overhead=0.0,
                latency_out=s.cable_latency,
                name=f"down{dst}",
            ),
        ]
