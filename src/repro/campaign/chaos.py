"""Chaos studies: sweep hard-failure time x location x technology.

A :class:`ChaosStudy` turns the fault layer's hard-failure machinery
(:mod:`repro.faults.hard`) into a campaign-shaped experiment: for each
technology it first measures the *pristine* run, then re-runs the same
program with one fabric link killed at a chosen fraction of the measured
window, for every (link, fraction) pair in the sweep.  Each degraded
cell reports whether the job completed, the degraded-bandwidth ratio
(pristine time over degraded time — 1.0 means unaffected, smaller means
slower), recovery time spent in failover, and the structured error when
the technology cannot recover (single-rail Elan-4 raising
:class:`~repro.errors.LinkDeadError`).

Kill times aim at the *measured* window, not absolute simulation time:
MPI_Init and the synchronizing barrier consume substantial simulated
time before the benchmark starts (queue-pair setup is itself an O(n)
cost under InfiniBand), so "kill at 50%" anchors at
``sim_end_us - elapsed_us`` — the window start recoverable from any
campaign record — plus the fraction of the elapsed window.

Cells execute through the ordinary :class:`~.engine.CampaignEngine`, so
chaos sweeps inherit caching, journaling, retries and the worker pool,
and parallel results stay bit-identical to serial ones.  An
unsurvivable cell (a technology correctly reporting a dead fabric) is an
*expected* outcome, not a campaign failure: :meth:`ChaosResult.failures`
only returns cells whose error is something other than a structured
link-death report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..networks.params import ELAN_4, IB_4X
from ..sim import Simulator
from ..topology import TopologySpec
from .engine import CampaignEngine
from .spec import RunSpec

#: Error types that are legitimate chaos outcomes: the technology
#: detected the dead fabric and reported it structurally, rather than
#: hanging or crashing incidentally.
EXPECTED_ERRORS = ("LinkDeadError", "RetryExhaustedError")


def default_kill_link(
    nodes: int,
    topology: Optional[Dict[str, Any]] = None,
    network: str = "ib",
) -> str:
    """The most interesting link to kill: the first fabric hop of the
    longest route (rank 0 to the last rank).

    Prefers an inter-switch or torus link (where path diversity exists)
    over a node cable (where killing the link strands the node).  Built
    on a scratch simulator; deterministic in the arguments alone.
    """
    if nodes < 2:
        raise ConfigurationError("chaos needs at least two nodes")
    params = IB_4X if network == "ib" else ELAN_4
    tspec = TopologySpec.from_dict(dict(topology)) if topology else TopologySpec()
    fabric = tspec.build(Simulator(seed=0), nodes, params.fabric)
    stages = fabric.wire_stages(0, nodes - 1)
    for stage in stages:
        if stage.name.startswith(("isl:", "torus.")):
            return stage.name
    for stage in stages:
        if stage.name in fabric.links:
            return stage.name
    raise ConfigurationError(
        f"no killable fabric link between nodes 0 and {nodes - 1}"
    )


@dataclass
class ChaosCell:
    """One degraded run: a link killed at a fraction of the window."""

    network: str
    link: str
    at_fraction: float
    kill_at_us: float
    status: str
    completed: bool
    pristine_us: float
    degraded_us: Optional[float] = None
    #: Pristine elapsed over degraded elapsed: 1.0 = unaffected.
    degraded_bw_ratio: Optional[float] = None
    failovers: int = 0
    #: Total simulated time spent inside failover windows.
    recovery_us: float = 0.0
    rail_switches: int = 0
    link_dead_errors: int = 0
    error: str = ""
    error_type: str = ""
    key: str = ""

    @property
    def expected(self) -> bool:
        """Whether this cell's outcome is a legitimate chaos result."""
        return self.completed or self.error_type in EXPECTED_ERRORS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "network": self.network,
            "link": self.link,
            "at_fraction": self.at_fraction,
            "kill_at_us": self.kill_at_us,
            "status": self.status,
            "completed": self.completed,
            "pristine_us": self.pristine_us,
            "degraded_us": self.degraded_us,
            "degraded_bw_ratio": self.degraded_bw_ratio,
            "failovers": self.failovers,
            "recovery_us": self.recovery_us,
            "rail_switches": self.rail_switches,
            "link_dead_errors": self.link_dead_errors,
            "error": self.error,
            "error_type": self.error_type,
            "key": self.key,
        }


@dataclass
class ChaosResult:
    """All cells of one chaos sweep, in sweep order."""

    cells: List[ChaosCell]
    #: Pristine elapsed time per network.
    pristine_us: Dict[str, float]

    @property
    def completion_rate(self) -> float:
        """Fraction of degraded cells that finished the program."""
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.completed) / len(self.cells)

    def failures(self) -> List[ChaosCell]:
        """Cells that ended in an *unexpected* error (see module doc)."""
        return [c for c in self.cells if not c.expected]

    def summary(self) -> str:
        lines = [
            f"chaos study: {len(self.cells)} degraded cells, "
            f"{self.completion_rate * 100.0:.0f}% completed"
        ]
        for network, us in sorted(self.pristine_us.items()):
            lines.append(f"  pristine {network}: {us:.1f}us")
        for cell in self.cells:
            if cell.completed:
                detail = (
                    f"bw ratio {cell.degraded_bw_ratio:.3f}, "
                    f"{cell.failovers} failover(s), "
                    f"recovery {cell.recovery_us:.1f}us"
                )
            else:
                detail = cell.error or cell.status
                if cell.error_type in EXPECTED_ERRORS:
                    detail = f"expected: {detail}"
            lines.append(
                f"  {cell.network} kill {cell.link} "
                f"@{cell.at_fraction:.0%} -> "
                f"{'ok' if cell.completed else 'FAILED'} ({detail})"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "completion_rate": self.completion_rate,
            "pristine_us": dict(sorted(self.pristine_us.items())),
            "cells": [c.to_dict() for c in self.cells],
        }


@dataclass
class ChaosStudy:
    """A hard-failure sweep: (technology x link x kill fraction).

    ``kill_links`` empty means "pick the default" (see
    :func:`default_kill_link`).  ``fault_knobs`` forwards extra
    :class:`~repro.faults.FaultPlan` fields to every degraded run —
    ``{"elan_rails": 2}`` models a dual-rail Quadrics machine that
    survives a link death by switching rails.
    """

    app: str = "is"
    app_args: Dict[str, Any] = field(default_factory=dict)
    nodes: int = 8
    ppn: int = 1
    topology: Dict[str, Any] = field(default_factory=dict)
    networks: Sequence[str] = ("ib", "elan")
    kill_links: Sequence[str] = ()
    fractions: Sequence[float] = (0.25, 0.5, 0.75)
    seed: int = 0
    fault_knobs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.networks:
            raise ConfigurationError("chaos study needs at least one network")
        if not self.fractions:
            raise ConfigurationError("chaos study needs at least one fraction")
        for fraction in self.fractions:
            if not 0.0 <= float(fraction) <= 1.0:
                raise ConfigurationError(
                    f"kill fraction {fraction} outside [0, 1]"
                )

    def _base_spec(self, network: str, faults: Dict[str, Any]) -> RunSpec:
        return RunSpec(
            app=self.app,
            network=network,
            nodes=self.nodes,
            ppn=self.ppn,
            seed=self.seed,
            app_args=tuple(self.app_args.items()),
            faults=tuple(faults.items()),
            topology=tuple(self.topology.items()),
        )

    def links_for(self, network: str) -> List[str]:
        if self.kill_links:
            return list(self.kill_links)
        return [default_kill_link(self.nodes, self.topology, network)]

    def run(self, engine: CampaignEngine) -> ChaosResult:
        """Execute the sweep; every cell goes through ``engine``."""
        pristine_specs = [self._base_spec(n, {}) for n in self.networks]
        pristine = engine.run_specs(pristine_specs)
        window: Dict[str, Tuple[float, float]] = {}
        pristine_us: Dict[str, float] = {}
        for network, record in zip(self.networks, pristine.records):
            if record.get("status") != "ok":
                raise ConfigurationError(
                    f"pristine {network} run failed: "
                    f"{record.get('error', 'unknown error')}"
                )
            elapsed = float(record["elapsed_us"])
            start = float(record.get("sim_end_us", elapsed)) - elapsed
            window[network] = (start, elapsed)
            pristine_us[network] = elapsed

        plan: List[Tuple[str, str, float, float, RunSpec]] = []
        for network in self.networks:
            start, elapsed = window[network]
            for link in self.links_for(network):
                for fraction in self.fractions:
                    kill_at = round(start + float(fraction) * elapsed, 3)
                    faults = dict(self.fault_knobs)
                    faults["link_down"] = link
                    faults["link_down_at_us"] = kill_at
                    plan.append(
                        (network, link, float(fraction), kill_at,
                         self._base_spec(network, faults))
                    )

        degraded = engine.run_specs([spec for *_, spec in plan])
        cells: List[ChaosCell] = []
        for (network, link, fraction, kill_at, _), record in zip(
            plan, degraded.records
        ):
            stats = record.get("fault_stats") or {}
            cell = ChaosCell(
                network=network,
                link=link,
                at_fraction=fraction,
                kill_at_us=kill_at,
                status=record.get("status", "?"),
                completed=record.get("status") == "ok",
                pristine_us=pristine_us[network],
                failovers=int(stats.get("failovers", 0)),
                recovery_us=float(stats.get("failover_us", 0.0)),
                rail_switches=int(stats.get("rail_switches", 0)),
                link_dead_errors=int(stats.get("link_dead_errors", 0)),
                # Prefer the root cause dug out of the __cause__ chain
                # ("LinkDeadError on isl:...") over the surfaced wrapper
                # ("process 'elan.tx1->3' crashed").
                error=record.get("error_cause") or record.get("error", ""),
                error_type=record.get("error_type", ""),
                key=record.get("key", ""),
            )
            if cell.completed:
                cell.degraded_us = float(record["elapsed_us"])
                if cell.degraded_us > 0:
                    cell.degraded_bw_ratio = cell.pristine_us / cell.degraded_us
            cells.append(cell)
        return ChaosResult(cells=cells, pristine_us=pristine_us)
