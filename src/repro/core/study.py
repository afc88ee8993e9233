"""Scaling-study orchestration: network x PPN x node-count sweeps.

A :class:`ScalingStudy` runs one application across both networks, both
PPN modes and a list of node counts, with each data point averaged over
four repetitions on machines seeded differently — exactly the paper's
methodology ("Each data point is the average of four benchmark runs").

The application is declarative: an ``app`` id plus ``app_args`` (see
:mod:`repro.campaign.programs`).  The sweep is a campaign
(:meth:`ScalingStudy.campaign`), and ``run()`` turns each of its runs
into a value the way a campaign does: serially in-process, or through a
:class:`repro.campaign.CampaignEngine` — parallel across workers,
memoized on disk, and resumable — with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from ..errors import ConfigurationError
from ..mpi import NETWORK_LABELS
from ..results import DataSeries, RepStats
from .efficiency import efficiency_series, fixed_efficiency, scaled_efficiency

if TYPE_CHECKING:  # pragma: no cover
    from ..campaign import CampaignSpec

#: The paper's repetition count.
DEFAULT_REPETITIONS = 4

#: One (network, ppn, nodes) sweep cell, in study order.
StudyCell = Tuple[str, int, int]


@dataclass
class StudyPoint:
    """All repetitions of one (network, ppn, nodes) cell."""

    network: str
    ppn: int
    nodes: int
    stats: RepStats = field(default_factory=RepStats)

    @property
    def procs(self) -> int:
        return self.nodes * self.ppn

    @property
    def mean_time(self) -> float:
        return self.stats.mean


@dataclass
class StudyResult:
    """A completed sweep, query-able per curve."""

    #: (network, ppn) -> ordered list of points.
    curves: Dict[Tuple[str, int], List[StudyPoint]]
    #: "scaled" or "fixed" study semantics.
    mode: str

    def curve_label(self, network: str, ppn: int) -> str:
        return f"{NETWORK_LABELS[network]} {ppn} PPN"

    def times(self, network: str, ppn: int) -> List[Tuple[int, float]]:
        """(nodes, mean time us) pairs for one curve."""
        return [
            (p.nodes, p.mean_time) for p in self.curves[(network, ppn)]
        ]

    def time_series(self, unit: float = 1.0) -> List[DataSeries]:
        """Execution-time curves (divide by ``unit``, e.g. 1e6 for s)."""
        out = []
        for (network, ppn), points in self.curves.items():
            out.append(
                DataSeries(
                    label=self.curve_label(network, ppn),
                    x=[float(p.nodes) for p in points],
                    y=[p.mean_time / unit for p in points],
                    x_name="nodes",
                    y_name="time",
                )
            )
        return out

    def efficiency(
        self, network: str, ppn: int, base_index: int = 0
    ) -> List[Tuple[int, float]]:
        """(nodes, efficiency) for one curve, normalized at a base point."""
        points = self.curves[(network, ppn)]
        base = points[base_index]
        pairs = [(p.nodes, p.mean_time) for p in points]
        if self.mode == "scaled":
            return scaled_efficiency(base.mean_time, pairs)
        # Fixed-size: efficiency against process counts.
        proc_pairs = [(p.procs, p.mean_time) for p in points]
        eff = fixed_efficiency(base.procs, base.mean_time, proc_pairs)
        # Re-key by node count for plotting consistency.
        return [(points[i].nodes, e) for i, (_, e) in enumerate(eff)]

    def efficiency_series(self, base_index: int = 0) -> List[DataSeries]:
        """Efficiency curves (percent) for every (network, ppn)."""
        return [
            efficiency_series(
                self.curve_label(network, ppn),
                self.efficiency(network, ppn, base_index),
            )
            for (network, ppn) in self.curves
        ]


class ScalingStudy:
    """Sweep runner for one application benchmark."""

    def __init__(
        self,
        app: str,
        app_args: Optional[Mapping[str, Any]] = None,
        node_counts: Sequence[int] = (),
        networks: Sequence[str] = ("ib", "elan"),
        ppns: Sequence[int] = (1,),
        repetitions: int = DEFAULT_REPETITIONS,
        mode: str = "scaled",
        seed_base: int = 1000,
    ) -> None:
        if not node_counts:
            raise ConfigurationError("need at least one node count")
        if not networks:
            raise ConfigurationError("need at least one network")
        if not ppns:
            raise ConfigurationError("need at least one ppn")
        if mode not in ("scaled", "fixed"):
            raise ConfigurationError(f"unknown study mode {mode!r}")
        if repetitions < 1:
            raise ConfigurationError("need at least one repetition")
        self.node_counts = list(node_counts)
        self.networks = list(networks)
        self.ppns = list(ppns)
        self.repetitions = repetitions
        self.mode = mode
        self.seed_base = seed_base
        self.app = app
        self.app_args = dict(app_args) if app_args else {}

    def cells(self) -> List[StudyCell]:
        """Every (network, ppn, nodes) cell in canonical sweep order."""
        return [
            (network, ppn, nodes)
            for network in self.networks
            for ppn in self.ppns
            for nodes in self.node_counts
        ]

    def campaign(self, name: str = "") -> "CampaignSpec":
        """The sweep as a :class:`~repro.campaign.CampaignSpec`.

        Every (network, nodes, ppn) point runs ``repetitions`` times,
        seeded ``seed_base + rep`` (the paper's four reruns).  Its
        ``to_dict()`` is a ``repro-campaign run`` file whose runs share
        every cache key with :meth:`run`.
        """
        from ..campaign import CampaignSpec

        return CampaignSpec(
            name=name or f"{self.app}-study",
            base={"app": self.app, "app_args": dict(self.app_args)},
            grid={
                "network": list(self.networks),
                "nodes": list(self.node_counts),
                "ppn": list(self.ppns),
            },
            repetitions=self.repetitions,
            seed_base=self.seed_base,
        )

    def assemble(
        self,
        values: Mapping[Tuple[str, int, int, int], float],
        progress: Optional[Callable[[str], None]] = None,
    ) -> StudyResult:
        """Fold per-run values (keyed by cell + rep index) into a result."""
        curves: Dict[Tuple[str, int], List[StudyPoint]] = {}
        for network, ppn, nodes in self.cells():
            point = StudyPoint(network=network, ppn=ppn, nodes=nodes)
            for rep in range(self.repetitions):
                point.stats.add(values[(network, ppn, nodes, rep)])
            curves.setdefault((network, ppn), []).append(point)
            if progress is not None:
                progress(
                    f"{network} {ppn}ppn {nodes} nodes: "
                    f"{point.mean_time / 1e3:.1f} ms"
                )
        return StudyResult(curves=curves, mode=self.mode)

    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
        engine: Optional[Any] = None,
    ) -> StudyResult:
        """Execute the full sweep; deterministic for a fixed seed_base.

        Each run of :meth:`campaign` becomes a value the way a campaign
        run does: :func:`~repro.campaign.scalar_value` of a fresh machine.
        With a :class:`repro.campaign.CampaignEngine` the runs go through
        the engine's cache and worker pool; results are identical to the
        serial path either way.
        """
        specs = self.campaign().expand()
        if engine is None:
            from ..campaign.programs import build_program
            from ..campaign.runner import scalar_value, spec_machine

            values = [
                scalar_value(
                    spec_machine(spec, None, None)
                    .run(build_program(spec.app, spec.args))
                    .values
                )
                for spec in specs
            ]
        else:
            result = engine.run_specs(specs)
            failed = result.failed()
            if failed:
                first = failed[0]
                raise ConfigurationError(
                    f"{len(failed)} of {result.total} campaign runs failed; "
                    f"first: {first.get('label', first.get('key'))}: "
                    f"{first.get('error')}"
                )
            values = result.values()
        # The campaign orders its grid axes by name, so assemble by each
        # run's own fields, never by position.
        return self.assemble(
            {
                (s.network, s.ppn, s.nodes, s.seed - self.seed_base): value
                for s, value in zip(specs, values)
            },
            progress=progress,
        )
