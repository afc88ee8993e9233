"""The compute-node model: CPUs, PCI-X bus, memory bus.

A :class:`Node` owns the contended resources that the paper's 2-PPN runs
stress: the single PCI-X slot carrying *all* NIC DMA traffic for both
ranks, and the memory bus carrying host-side copies.  Each rank gets its
own CPU (the testbed nodes are dual-processor, and the paper never runs
more ranks than processors).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List

from ..errors import ConfigurationError
from ..sim import Event, FifoResource, Stage
from .specs import POWEREDGE_1750

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


class Cpu:
    """One host processor: a one-slot FIFO resource plus helpers."""

    def __init__(self, sim: "Simulator", node_id: int, index: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self.index = index
        self.resource = FifoResource(sim, name=f"cpu{node_id}.{index}")
        #: Accumulated busy time attributed to MPI-library work (host
        #: overhead accounting for the offload analysis).
        self.mpi_overhead_time = 0.0
        #: Accumulated busy time attributed to application compute.
        self.compute_time = 0.0
        #: Issue-order counter: each busy slice carries its issue index
        #: as tiebreak key — a rank's CPU work is sequential, so issue
        #: order is program order (see Event.tiebreak_key).
        self._op_seq = 0

    def busy(
        self, duration: float, kind: str = "compute"
    ) -> Generator[Event, Any, None]:
        """Occupy the CPU for ``duration`` us, attributed to ``kind``."""
        if duration < 0:
            raise ConfigurationError(f"negative CPU busy time: {duration}")
        if duration == 0.0:
            return
        self._op_seq += 1
        yield from self.resource.using(duration, key=self._op_seq)
        if kind == "mpi":
            self.mpi_overhead_time += duration
        else:
            self.compute_time += duration


class Node:
    """One compute node: CPUs plus the shared PCI-X and memory buses."""

    def __init__(self, sim: "Simulator", node_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self.spec = POWEREDGE_1750
        self.cpus: List[Cpu] = [
            Cpu(sim, node_id, i) for i in range(self.spec.cpus)
        ]
        #: The PCI-X slot: every DMA between host memory and the NIC —
        #: from either rank, in either direction — serializes here.
        self.pcix = FifoResource(sim, name=f"pcix{node_id}")
        #: Memory bus for host-driven copies (eager bounce buffers).
        self.membus = FifoResource(sim, name=f"membus{node_id}")
        #: Number of local ranks currently spin-polling their MPI library
        #: (host-based implementations only); co-resident compute slows
        #: while this is non-zero.
        self.spinning = 0
        #: Issue-order counter for host copies (tiebreak keys on the
        #: shared memory bus).
        self._copy_seq = 0

    # -- pipeline stage builders -------------------------------------------

    def pcix_stage(self, latency_out: float = 0.0) -> Stage:
        """A pipeline stage crossing this node's PCI-X bus."""
        return Stage(
            resource=self.pcix,
            bandwidth=self.spec.pcix_bandwidth,
            overhead=self.spec.pcix_dma_overhead,
            latency_out=latency_out,
            name=f"pcix{self.node_id}",
        )

    def host_copy(
        self, nbytes: int, key: Any = None
    ) -> Generator[Event, Any, None]:
        """A host memcpy of ``nbytes`` through the shared memory bus.

        ``key`` overrides the default issue-order tiebreak key when the
        caller has a semantically stronger identity for the copy (e.g.
        the wire sequence number of the message being staged).
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative copy size: {nbytes}")
        if nbytes == 0:
            return
        if key is None:
            self._copy_seq += 1
            key = self._copy_seq
        duration = nbytes / self.spec.copy_bandwidth
        yield from self.membus.using(duration, key=key)

    def cpu_for_rank(self, local_index: int) -> Cpu:
        """The CPU owned by the ``local_index``-th rank on this node."""
        if not 0 <= local_index < len(self.cpus):
            raise ConfigurationError(
                f"node {self.node_id} has {len(self.cpus)} CPUs; "
                f"rank slot {local_index} does not exist"
            )
        return self.cpus[local_index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} cpus={len(self.cpus)}>"
