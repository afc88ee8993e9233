"""Calibrated hardware parameters for both interconnects.

Every number here is either a published characteristic of the hardware
(link rates, MTUs) or a component cost calibrated so the *end-to-end*
micro-benchmark behaviour matches the paper's Figure 1 anchors (Elan-4
latency about half of InfiniBand's, the 1 KB -> 2 KB protocol jump, the
552 vs 249 MB/s 8 KB bandwidths, similar large-message asymptotes, the
4 MB registration-thrash dip, and the >5x small-message streaming ratio).
``repro.core.calibration`` checks those anchors; tests pin them with
tolerances.

All times are microseconds, bandwidths bytes/us (== MB/s), sizes bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..topology import FabricSpec
from ..units import KiB, MiB


@dataclass(frozen=True)
class IBParams:
    """4X InfiniBand HCA + MVAPICH 0.9.2 protocol parameters."""

    #: Wire: 10 Gb/s signalling, 8b/10b coding -> 8 Gb/s data, less
    #: packet/credit overhead: ~930 MB/s payload per direction.
    fabric: FabricSpec = field(
        default_factory=lambda: FabricSpec(
            link_bandwidth=930.0,
            cable_latency=0.15,
            switch_latency=0.20,
            mtu=2048,
        )
    )
    #: Host CPU cost to build and post one work-queue element (doorbell).
    wqe_post: float = 0.45
    #: HCA engine occupancy per outgoing message (WQE fetch across PCI-X,
    #: DMA descriptor setup).  This is the minimum message gap -> it bounds
    #: the streaming small-message rate (~500k msg/s, era-typical).
    hca_tx_processing: float = 2.20
    #: HCA engine occupancy per incoming message (CQE generation, DMA).
    hca_rx_processing: float = 1.05
    #: Host CPU cost to poll the completion queue and pick up one record.
    cq_poll: float = 0.45
    #: Host CPU cost of MPI tag matching per queue element searched.
    host_match_per_element: float = 0.06
    #: Host CPU cost of one matching attempt (base).
    host_match_base: float = 0.35
    #: MVAPICH eager/rendezvous switch point: messages *larger* than this
    #: use rendezvous.  The paper observes the latency jump between 1 KB
    #: and 2 KB messages.
    eager_threshold: int = 1 * KiB
    #: Per-peer RDMA fast-path ring: slot count and per-slot byte size;
    #: total buffer memory grows linearly with the number of processes,
    #: the scalability concern of Section 4.1.
    rdma_ring_slots: int = 32
    rdma_ring_slot_bytes: int = 1 * KiB + 64
    #: Control message size for RTS/CTS/FIN.
    control_bytes: int = 64
    #: Rendezvous data movement: "write" (RTS -> CTS -> sender RDMA-writes,
    #: the 0.9.2 protocol the paper measured) or "read" (RTS carries the
    #: source address and the *receiver* RDMA-reads — the later-MVAPICH
    #: design that removes the CTS trip and frees the sender's host).
    rndv_protocol: str = "write"
    #: NIC-level turnaround of an RDMA-read request at the data source.
    rdma_read_request: float = 1.0
    #: Memory registration: fixed syscall/setup cost plus per-4KB-page
    #: pinning cost, through an LRU registration cache.
    reg_base: float = 12.0
    reg_per_page: float = 0.85
    dereg_base: float = 6.0
    dereg_per_page: float = 0.25
    page_bytes: int = 4096
    #: Registration cache capacity.  Two 4 MB ping-pong buffers per process
    #: exceed it, reproducing the 4 MB bandwidth dip the paper attributes
    #: to registration thrashing (fixed in later MVAPICH releases).
    reg_cache_bytes: int = 6 * MiB
    #: Registration-cache hit cost (host hash lookup).
    reg_cache_hit: float = 0.12
    #: Queue-pair connection setup (per peer, paid at MPI_Init).
    qp_setup: float = 120.0
    #: Per-QP host + HCA memory footprint (bytes), for scalability reports.
    qp_footprint_bytes: int = 88 * KiB

    def __post_init__(self) -> None:
        if self.eager_threshold < self.control_bytes:
            raise ConfigurationError("eager threshold below control size")
        if self.reg_cache_bytes <= 0 or self.page_bytes <= 0:
            raise ConfigurationError("bad registration parameters")
        if self.rndv_protocol not in ("write", "read"):
            raise ConfigurationError(
                f"unknown rendezvous protocol {self.rndv_protocol!r}"
            )

    def ring_bytes_per_peer(self) -> int:
        """Eager fast-path buffer memory dedicated to one peer."""
        return self.rdma_ring_slots * self.rdma_ring_slot_bytes

    def memory_footprint(self, nprocs: int) -> int:
        """Per-process network buffer memory in an ``nprocs`` job.

        Linear in the number of processes — the constraint the paper notes
        ties the maximum "short" message size to job size on InfiniBand.
        """
        peers = max(0, nprocs - 1)
        return peers * (self.ring_bytes_per_peer() + self.qp_footprint_bytes)


@dataclass(frozen=True)
class ElanParams:
    """Quadrics Elan-4 / QsNetII + Tports protocol parameters."""

    #: Elan-4 links move about 1.3 GB/s of payload in each direction.
    fabric: FabricSpec = field(
        default_factory=lambda: FabricSpec(
            link_bandwidth=1300.0,
            cable_latency=0.10,
            switch_latency=0.15,
            mtu=2048,
        )
    )
    #: Host CPU cost to issue one Tports command (write to NIC queue page).
    command_post: float = 0.22
    #: NIC input/output engine occupancy per message (STEN packet engine);
    #: the small-message gap, far below the IB HCA's WQE processing.
    nic_tx_processing: float = 0.30
    nic_rx_processing: float = 0.25
    #: Thread-processor cost of one matching attempt (base) and per list
    #: element searched.  The per-element cost exceeds the host CPU's
    #: (0.05 vs 0.06 base-elements on a far slower processor would be
    #: generous; long queues on the NIC are the offload hazard of [22]) —
    #: but the *base* path is a tight microcoded loop, keeping the
    #: streaming message gap ~4-6x below the HCA's WQE processing.
    thread_match_base: float = 0.15
    thread_match_per_element: float = 0.08
    #: Thread-processor cost to set up the delivery DMA after a match.
    thread_dma_setup: float = 0.12
    #: Host-visible completion event cost (NIC writes an event word; the
    #: waiting process observes it without polling the library).
    event_delivery: float = 0.30
    #: Messages larger than this use a NIC-to-NIC handshake so the payload
    #: lands only after a matching receive exists; the handshake runs on
    #: the NIC thread with no host involvement (independent progress).
    sync_threshold: int = 32 * KiB
    #: Unexpected messages up to this size are buffered by the Tports
    #: thread in system memory.
    system_buffer_bytes: int = 8 * MiB
    #: Tports capability setup is per *job*, not per peer: connectionless.
    capability_setup: float = 250.0
    #: QsNetII hardware collectives (switch-assisted broadcast and
    #: barrier).  Off by default: the paper's comparison is calibrated
    #: with both stacks building collectives from point-to-point
    #: messages; enable for the what-if/ablation studies.
    hw_collectives: bool = False
    #: Hardware barrier completes this long after the last arrival
    #: (switch tree combine + event write), independent of node count
    #: within a chassis.
    hw_barrier_latency: float = 2.5
    #: Per-destination replication cost inside the switch for hardware
    #: broadcast (output-port scheduling).
    hw_bcast_per_dest: float = 0.05

    def memory_footprint(self, nprocs: int) -> int:
        """Per-process network buffer memory in an ``nprocs`` job.

        Constant: Tports is connectionless — no per-peer rings or queue
        pairs.  (The system unexpected-message buffer is shared.)
        """
        del nprocs
        return self.system_buffer_bytes


#: Default calibrated parameter sets.
IB_4X = IBParams()
ELAN_4 = ElanParams()
