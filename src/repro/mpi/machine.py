"""Machine builder: nodes + fabric + NICs + MPI, ready to run programs.

:class:`Machine` assembles one complete simulated cluster for one of the
two technologies and runs MPI programs on it.  A machine is single-use —
build a fresh one per measurement run (the study layer does this, with a
distinct RNG seed per repetition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from ..errors import ConfigurationError
from ..topology import TopologySpec
from ..topology.base import Topology
from ..faults import FaultInjector, FaultPlan, validate_fault_targets
from ..hardware import Node, POWEREDGE_1750
from ..networks.elan import ElanNic
from ..networks.ib import Hca
from ..networks.params import ELAN_4, IB_4X, ElanParams, IBParams
from ..sim import Simulator
from ..telemetry import Telemetry
from ..telemetry.chrome import chrome_trace, write_chrome_trace
from ..telemetry.collect import snapshot
from .api import MpiRank
from .communicator import Communicator
from .context import RankContext
from .mvapich.impl import MvapichImpl
from .qmpi.impl import QMpiImpl

#: Identifiers accepted by :class:`Machine` and the study layer.
NETWORKS = ("ib", "elan")

#: Display names used in reports and figure legends.
NETWORK_LABELS = {"ib": "4X InfiniBand", "elan": "Quadrics Elan-4"}

ProgramFactory = Callable[[MpiRank], Generator[Any, Any, Any]]


@dataclass
class RunResult:
    """Outcome of one program run on one machine."""

    elapsed_us: float
    #: Per-rank program return values, indexed by world rank.
    values: List[Any]
    #: Per-rank start/end times (after the synchronizing barrier).
    rank_spans: List[tuple]

    @property
    def elapsed_s(self) -> float:
        """Elapsed wall time in seconds."""
        return self.elapsed_us / 1e6


class Machine:
    """One simulated cluster: ``n_nodes`` nodes, ``ppn`` ranks per node.

    Every node is the paper's Dell PowerEdge 1750 (``POWEREDGE_1750``).
    """

    def __init__(
        self,
        network: str,
        n_nodes: int,
        ppn: int = 1,
        seed: int = 0,
        ib_params: IBParams = IB_4X,
        elan_params: ElanParams = ELAN_4,
        topology: Optional[Any] = None,
        ib_progress_thread: bool = False,
        faults: Optional[FaultPlan] = None,
        telemetry: Optional[Telemetry] = None,
        sanitizer: bool = False,
        profiler: Optional[Any] = None,
    ) -> None:
        if network not in NETWORKS:
            raise ConfigurationError(
                f"unknown network {network!r}; expected one of {NETWORKS}"
            )
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if not 1 <= ppn <= POWEREDGE_1750.cpus:
            raise ConfigurationError(
                f"ppn={ppn} impossible on {POWEREDGE_1750.cpus}-CPU nodes"
            )
        self.network = network
        self.n_nodes = n_nodes
        self.ppn = ppn
        self.n_ranks = n_nodes * ppn
        #: Same-time race sanitizer, when requested (observation-only:
        #: enabling it never changes scheduling or results).
        self.sanitizer: Optional[Any] = None
        if sanitizer:
            from ..analysis import RaceSanitizer

            self.sanitizer = RaceSanitizer()
        # Both ride the kernel's one observer list; a machine with
        # neither runs the bare loop.
        observers = [
            obs for obs in (self.sanitizer, profiler) if obs is not None
        ]
        self.sim = Simulator(
            seed=seed, telemetry=telemetry, observers=observers
        )
        self.ib_params = ib_params
        self.elan_params = elan_params
        self.fault_plan = faults

        net_params = ib_params if network == "ib" else elan_params
        # Any repro.topology fabric, declaratively (a TopologySpec or its
        # dict form); none is the single-chassis crossbar.
        self.topology = (
            topology
            if isinstance(topology, TopologySpec)
            else TopologySpec.from_dict(dict(topology or {}))
        )
        self.fabric: Topology = self.topology.build(
            self.sim, n_nodes, net_params.fabric
        )
        # An injector is attached only when the plan can actually fire;
        # a disabled plan leaves every model on its draw-free fast path,
        # keeping no-fault results bit-identical to a plan-less machine.
        # Plans that name fabric elements are resolved against the built
        # topology here — a typo'd target raises UnknownLinkError (a
        # ValueError) now instead of silently never firing — and the
        # hard-event schedule is armed as a daemon process.
        if faults is not None and faults.enabled:
            validate_fault_targets(faults, self.fabric)
            injector = FaultInjector(self.sim, faults)
            self.sim.faults = injector
            if injector.hard is not None:
                injector.hard.arm(self.sim, self.fabric)
        self.nodes: List[Node] = [
            Node(self.sim, i) for i in range(n_nodes)
        ]
        if network == "ib":
            self.impl: Any = MvapichImpl(
                self.sim, ib_params, progress_thread=ib_progress_thread
            )
            self.nics: List[Any] = [
                Hca(self.sim, node, self.fabric, ib_params) for node in self.nodes
            ]
        else:
            self.impl = QMpiImpl(self.sim, elan_params)
            self.nics = [
                ElanNic(self.sim, node, self.fabric, elan_params)
                for node in self.nodes
            ]

        self.world = Communicator(list(range(self.n_ranks)), name="world")
        self.contexts: List[RankContext] = []
        self.apis: List[MpiRank] = []
        for rank in range(self.n_ranks):
            node = self.nodes[rank // ppn]  # block rank placement
            cpu = node.cpu_for_rank(rank % ppn)
            ctx = RankContext(
                self.sim, rank, self.n_ranks, node, cpu, self.nics[rank // ppn]
            )
            self.impl.register_rank(ctx, self.nics[rank // ppn])
            self.contexts.append(ctx)
            self.apis.append(MpiRank(ctx, self.impl, self.world))
        for ctx in self.contexts:
            ctx.neighbors = [
                other
                for other in self.contexts
                if other.node is ctx.node and other is not ctx
            ]
        self._used = False

    @property
    def label(self) -> str:
        """Display name of the interconnect."""
        return NETWORK_LABELS[self.network]

    def run(
        self,
        program: ProgramFactory,
        max_events: Optional[int] = None,
        wall_limit_s: Optional[float] = None,
        check_invariants: bool = False,
    ) -> RunResult:
        """Run ``program`` on every rank; returns timing and values.

        The measured span starts after MPI_Init and a synchronizing
        barrier (as the real benchmarks do) and ends when the slowest
        rank's program returns.  ``max_events``/``wall_limit_s`` arm the
        kernel watchdog (see :meth:`repro.sim.Simulator.run`) so a hung
        program raises :class:`~repro.errors.WatchdogError` naming the
        blocked ranks instead of spinning forever.

        ``check_invariants=True`` runs the end-of-run conservation
        checks after the program finishes, raising
        :class:`~repro.errors.InvariantViolation` on residue (held
        resource slots, unbalanced eager credits, parked records...).
        Off by default and purely post-hoc: it never changes results.
        """
        if self._used:
            raise ConfigurationError(
                "Machine is single-use; build a new one per run"
            )
        self._used = True
        n = self.n_ranks
        values: List[Any] = [None] * n
        spans: List[tuple] = [(0.0, 0.0)] * n

        def runner(rank: int) -> Generator[Any, Any, None]:
            api = self.apis[rank]
            yield from self.impl.init(api.ctx)
            yield from api.barrier()
            start = self.sim.now
            values[rank] = yield from program(api)
            spans[rank] = (start, self.sim.now)

        for rank in range(n):
            self.sim.spawn(runner(rank), name=f"rank{rank}")
        self.sim.run_all(max_events=max_events, wall_limit_s=wall_limit_s)
        if check_invariants:
            self.verify_invariants()

        start = max(s for s, _ in spans)
        end = max(e for _, e in spans)
        return RunResult(elapsed_us=end - start, values=values, rank_spans=spans)

    # -- analysis ------------------------------------------------------------

    def check_invariants(self) -> list:
        """End-of-run conservation checks; returns the violation roster.

        Empty list means the run quiesced cleanly: no held resource
        slots, no undelivered records, credits balanced, registration
        caches consistent, every lifecycle span finished.
        """
        from ..analysis import check_invariants

        return check_invariants(self)

    def verify_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` on residue."""
        from ..analysis import verify_invariants

        verify_invariants(self)

    # -- telemetry -----------------------------------------------------------

    def metrics(self) -> dict:
        """Flat, sorted snapshot of every metric and resource statistic."""
        return snapshot(self.sim)

    def chrome_trace(self, label: str = "") -> dict:
        """The run as a Chrome ``trace_event`` document (JSON-ready)."""
        return chrome_trace(self.sim, label=label or self.label)

    def write_chrome_trace(self, path, label: str = "") -> dict:
        """Write :meth:`chrome_trace` to ``path``; returns the document."""
        return write_chrome_trace(path, self.sim, label=label or self.label)

    def lifecycle_spans(self) -> List[dict]:
        """All recorded message spans as JSON-ready dicts (start order)."""
        return self.sim.telemetry.lifecycle.to_dicts()

    def blame(self) -> dict:
        """Critical-path blame table over the run's message spans.

        Empty-path shape (``total_us`` 0) when lifecycle collection was
        off or no message completed.
        """
        from ..telemetry.critical_path import blame_of_spans

        return blame_of_spans(self.sim.telemetry.lifecycle.spans)

    def series(self, dt: float = 0.0, points: int = 200) -> dict:
        """Every sampled channel resampled onto a common virtual-time grid."""
        bank = self.sim.telemetry.series
        if not bank.enabled:
            return {}
        return bank.sampled(self.sim.now, dt=dt, points=points)

    def memory_footprint_per_process(self) -> int:
        """Network buffer bytes one process dedicates in this job size."""
        return self.nics[0].memory_footprint(self.n_ranks)
