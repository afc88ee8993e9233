"""Abstract network-interface model shared by both technologies.

A NIC sits between a :class:`~repro.hardware.Node` and a fabric.  It owns
the per-message engine resources (the source of small-message gap) and
knows how to build the full pipeline for a payload: PCI-X out of host
memory, the wire, PCI-X into the destination host.  Concrete subclasses
add the protocol machinery (queue pairs and registration for InfiniBand,
the thread processor and Tports matching for Elan-4).

When a :class:`~repro.faults.FaultInjector` is attached to the simulator,
:meth:`Nic.push` routes internode messages through the subclass's
``_push_with_link_faults`` — where the two technologies' recovery
protocols diverge: end-to-end retransmit for InfiniBand, link-level
hardware retry for Elan-4.  With no injector (or zero BER) the pristine
path runs unchanged and no randomness is consumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, List

from ..errors import NetworkError
from ..hardware import Node
from ..topology.base import Topology
from ..sim import Event, FifoResource, Stage, transfer
from ..telemetry.lifecycle import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

_seq_counter = itertools.count(1)


@dataclass
class NetRecord:
    """A unit of network-visible information delivered to the far side.

    Carries protocol bookkeeping only — payload *contents* are never
    simulated, just sizes.  ``meta`` is free-form protocol state (e.g. the
    send handle a CTS refers to).
    """

    kind: str
    src_rank: int
    dst_rank: int
    size: int
    tag: int = 0
    meta: Any = None
    seq: int = field(default_factory=lambda: next(_seq_counter))
    #: Lifecycle span of the MPI operation this record serves (the
    #: shared null span when lifecycle telemetry is off).
    span: Any = NULL_SPAN


class Nic:
    """Base class for both adapter models."""

    #: Stream/label prefix for injected stalls of this NIC's engines.
    _stall_component = "nic"

    def __init__(
        self,
        sim: "Simulator",
        node: Node,
        fabric: Topology,
        tx_processing: float,
        rx_processing: float,
        chunk: int,
    ) -> None:
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.chunk = chunk
        #: Per-message engine occupancy — the injection gap.
        self.tx_engine = FifoResource(sim, name=f"nic{node.node_id}.tx")
        self.rx_engine = FifoResource(sim, name=f"nic{node.node_id}.rx")
        # The host-side stages of every payload pipeline, built once.
        self._pcix_stage = node.pcix_stage()
        self._tx_stage = Stage(
            resource=self.tx_engine,
            bandwidth=None,
            overhead=tx_processing,
            latency_out=0.0,
            name=f"nictx{node.node_id}",
        )
        self._rx_stage = Stage(
            resource=self.rx_engine,
            bandwidth=None,
            overhead=rx_processing,
            latency_out=0.0,
            name=f"nicrx{node.node_id}",
        )

    # -- path construction ---------------------------------------------------

    def payload_stages(self, dst_nic: "Nic") -> List[Stage]:
        """Full pipeline for payload bytes from this host to ``dst_nic``'s.

        host mem --PCI-X--> NIC engine --wire--> NIC engine --PCI-X--> mem
        """
        stages: List[Stage] = [self._pcix_stage, self._tx_stage]
        stages += self.fabric.wire_stages(
            self.node.node_id, dst_nic.node.node_id
        )
        stages.append(dst_nic._rx_stage)
        stages.append(dst_nic._pcix_stage)
        return stages

    def push(
        self,
        dst_nic: "Nic",
        size: int,
        span: Any = NULL_SPAN,
        phase: str = "wire",
        key: Any = None,
    ) -> Generator[Event, Any, float]:
        """Move ``size`` payload bytes to the destination host memory.

        Returns the delivery completion time.  Contention with every other
        transfer sharing a bus, engine or link is exact.  With link bit
        errors injected, internode messages go through the technology's
        recovery path instead (``_push_with_link_faults``).

        A live lifecycle ``span`` gets the transit recorded as ``phase``
        plus a per-component stage breakdown note (``wb:<phase>``) so
        blame analysis can split wire time into PCI-X / NIC / link /
        switch shares; the null span keeps this allocation-free.

        ``key`` identifies the message for same-time tiebreak auditing
        (typically the :class:`NetRecord` ``seq``); it is composed with
        ``phase`` so a record's probe and payload pushes stay distinct.
        """
        if size < 0:
            raise NetworkError(f"negative payload size: {size}")
        stages = self.payload_stages(dst_nic)
        start = self.sim.now
        if span.live:
            span.note("wb:" + phase, stage_breakdown(stages, size))
        if key is not None:
            key = (phase, key)
        faults = self.sim.faults
        if (
            faults is None
            or not (
                faults.plan.wire_faulty
                or (faults.hard is not None and faults.hard.active)
            )
            or dst_nic.node.node_id == self.node.node_id
        ):
            # Pristine path — also taken for NIC loopback, which never
            # touches a wire.
            end = yield from transfer(
                self.sim, stages, size, chunk=self.chunk, key=key
            )
        else:
            end = yield from self._push_with_link_faults(
                dst_nic, stages, size, faults, span, key=key
            )
        if span.live and faults is not None and faults.hard is not None:
            self._record_transit(span, phase, start, end)
        else:
            span.phase(phase, start, end)
        return end

    @staticmethod
    def _record_transit(span: Any, phase: str, start: float, end: float) -> None:
        """Record the transit phase, carved around failover windows.

        Recovery paths record ``failover`` phases inside the transit
        interval.  The critical-path walk picks the latest-ending own
        phase, so one enclosing wire phase would shadow them and blame
        would never see recovery downtime; splitting the wire phase
        around each window keeps own phases non-overlapping.
        """
        windows = [
            (s, e)
            for name, s, e in span.phases
            if name == "failover" and start <= s and e <= end
        ]
        if not windows:
            span.phase(phase, start, end)
            return
        lo = start
        for s, e in sorted(windows):
            if s > lo:
                span.phase(phase, lo, s)
            lo = max(lo, e)
        if end > lo:
            span.phase(phase, lo, end)

    def _push_with_link_faults(
        self,
        dst_nic: "Nic",
        stages: List[Stage],
        size: int,
        faults,
        span=NULL_SPAN,
        key: Any = None,
    ) -> Generator[Event, Any, float]:
        """Deliver one message across a lossy fabric (subclass recovery).

        The technology models implement this with their real recovery
        machinery (IB end-to-end retransmit, Elan link-level retry),
        annotating retries onto the lifecycle ``span``.
        """
        raise NotImplementedError

    def _wire_links(self, dst_nic: "Nic") -> List[Stage]:
        """The fabric link stages a message to ``dst_nic`` crosses."""
        return self.fabric.wire_stages(self.node.node_id, dst_nic.node.node_id)

    def _fabric_stages(self, stages: List[Stage]) -> List[Stage]:
        """The fabric-owned link stages within one concrete pipeline.

        Unlike :meth:`_wire_links` this inspects the pipeline a transfer
        *actually used*, so hard-failure checks stay correct even when a
        concurrent recovery migrated the pair's route mid-flight.
        """
        fabric_links = self.fabric.links
        return [
            st for st in stages
            if st.resource is not None
            and fabric_links.get(st.resource.name) is st.resource
        ]

    def _maybe_stall(self) -> Generator[Event, Any, None]:
        """Injected transient engine stall (doorbell/DMA/thread dispatch)."""
        faults = self.sim.faults
        if faults is None:
            return
        component = f"{self._stall_component}{self.node.node_id}"
        stall = faults.nic_stall(component)
        if stall > 0.0:
            self.sim.trace.log(
                self.sim.now, "fault.stall", "{} stalls {:g}us", component, stall
            )
            yield self.sim.timeout(stall)

    # -- subclass interface ----------------------------------------------------

    def describe(self) -> str:
        """Human-readable adapter description for reports."""
        raise NotImplementedError

    def memory_footprint(self, nprocs: int) -> int:
        """Per-process network buffer bytes for an ``nprocs``-process job."""
        raise NotImplementedError


def stage_component(name: str) -> str:
    """The blame component a pipeline stage belongs to, by naming scheme.

    ``pcix*`` is the host bus, ``nictx*``/``nicrx*`` the adapter engines,
    ``up*``/``down*`` the node-to-switch link directions and ``torus.*``
    the torus neighbor links (both cables), ``isl:*`` the inter-switch
    links of a fat tree, and everything else the switch.
    """
    if name.startswith("pcix"):
        return "pcix"
    if name.startswith(("nictx", "nicrx")):
        return "nic"
    if name.startswith(("up", "down", "torus")):
        return "link"
    if name.startswith("isl"):
        return "isl"
    return "switch"


def stage_breakdown(stages: List[Stage], size: int) -> dict:
    """Component shares of one wire transit's uncontended time.

    Apportions each stage's serialization + outbound latency to its
    component and normalizes to shares summing to 1.0.  A stage's
    declared ``switch_latency`` slice is charged to ``switch`` instead,
    so per-hop router crossings stay distinguishable from cable and ISL
    time.  Used to split a recorded ``wire:*`` phase for the blame
    table; contention stretches the phase but the stage mix is the best
    available attribution.
    """
    totals: dict = {}
    for stage in stages:
        comp = stage_component(stage.name)
        t = stage.serialization(size) + stage.latency_out
        crossing = min(stage.switch_latency, t)
        if crossing > 0.0:
            totals["switch"] = totals.get("switch", 0.0) + crossing
            t -= crossing
        totals[comp] = totals.get(comp, 0.0) + t
    # Summed in sorted key order so float rounding is iteration-order-free.
    scale = 0.0
    for comp in sorted(totals):
        scale += totals[comp]
    if scale <= 0.0:
        return {}
    return {comp: t / scale for comp, t in sorted(totals.items())}
