"""The 4X InfiniBand host channel adapter model.

Connection-oriented and host-driven: every communicating pair of processes
needs an established queue pair (the paper's Section 3.3.1 scalability
concern), every RDMA needs registered memory (Section 3.3.2), and nothing
the HCA delivers becomes *MPI-visible* until the host polls — the adapter
has no processor running MPI matching (Sections 3.3.3/3.3.4).

The HCA itself moves bytes autonomously once a work request is posted;
what it cannot do is *initiate* protocol steps, which is why the MVAPICH
layer on top only makes rendezvous progress inside MPI library calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Set

from ...errors import (
    LinkDeadError,
    NetworkError,
    QueuePairError,
    RetryExhaustedError,
)
from ...faults.recovery import ib_retry_schedule
from ...hardware.node import Cpu, Node
from ...sim import Event, Store, transfer
from ...telemetry.lifecycle import NULL_SPAN
from ..base import NetRecord, Nic
from ..params import IBParams
from .memreg import RegistrationCache

if TYPE_CHECKING:  # pragma: no cover
    from ...sim import Simulator
    from ...topology.base import Topology

#: Transport header carried on the wire by every IB message (LRH+BTH+
#: RETH/immediate, rounded): added to payload for serialization purposes.
WIRE_HEADER_BYTES = 48


class Hca(Nic):
    """One HCA serving all ranks of its node."""

    _stall_component = "hca"

    def __init__(
        self,
        sim: "Simulator",
        node: Node,
        fabric: "Topology",
        params: IBParams,
    ) -> None:
        super().__init__(
            sim,
            node,
            fabric,
            tx_processing=params.hca_tx_processing,
            rx_processing=params.hca_rx_processing,
            chunk=params.fabric.mtu,
        )
        self.params = params
        #: One registration cache per *rank* (process address spaces are
        #: private); keyed by local rank slot.
        self._reg_caches: Dict[int, RegistrationCache] = {}
        #: Host-visible delivery queues per rank: records the host MPI
        #: library discovers only by polling.
        self._inboxes: Dict[int, Store] = {}
        #: Established queue pairs, as (local_rank, remote_rank) pairs.
        self._connections: Set[tuple] = set()
        self.qp_count = 0
        self._c_retransmits = sim.metrics.counter("mvapich.transport.retransmits")
        self._c_timeout_us = sim.metrics.counter(
            "mvapich.transport.timeout_backoff_us"
        )
        self._c_migrations = sim.metrics.counter(
            "mvapich.transport.path_migrations"
        )

    # -- per-rank plumbing ------------------------------------------------------

    def attach_rank(self, rank: int) -> Store:
        """Register a rank on this node; returns its delivery inbox."""
        if rank in self._inboxes:
            raise NetworkError(f"rank {rank} already attached to HCA")
        inbox = Store(self.sim, name=f"ib.inbox{rank}")
        self._inboxes[rank] = inbox
        self._reg_caches[rank] = RegistrationCache(
            self.sim, self.params, name=f"r{rank}"
        )
        return inbox

    def reg_cache(self, rank: int) -> RegistrationCache:
        """The pin-down cache of one attached rank."""
        return self._reg_caches[rank]

    # -- connection management -----------------------------------------------------

    def connect(
        self, cpu: Cpu, local_rank: int, remote_rank: int
    ) -> Generator[Event, Any, None]:
        """Establish the queue pair ``local_rank`` <-> ``remote_rank``.

        MVAPICH 0.9.2 performs this for every peer at ``MPI_Init`` — an
        O(nprocs) startup cost per process and an O(nprocs) memory
        footprint, both reported by :meth:`memory_footprint`.
        """
        key = (local_rank, remote_rank)
        if key in self._connections:
            return
        self._connections.add(key)
        self.qp_count += 1
        yield from cpu.busy(self.params.qp_setup, kind="mpi")

    def is_connected(self, local_rank: int, remote_rank: int) -> bool:
        """Whether a queue pair exists for the ordered pair."""
        return (local_rank, remote_rank) in self._connections

    # -- data movement ----------------------------------------------------------------

    def rdma_write(
        self,
        cpu: Cpu,
        local_rank: int,
        dst_hca: "Hca",
        record: NetRecord,
    ) -> Generator[Event, Any, Event]:
        """Post one RDMA write carrying ``record``.

        The posting rank pays the WQE cost on its CPU synchronously — that
        is the host's only involvement.  The HCA then moves ``record.size``
        payload bytes (plus wire header) autonomously; the returned event
        fires at local completion (CQE).  On arrival the record lands in
        the destination rank's inbox, where it stays until the *host*
        polls — delivery is not MPI progress.
        """
        if not self.is_connected(local_rank, record.dst_rank):
            raise QueuePairError(
                f"rank {local_rank} has no queue pair to rank {record.dst_rank}"
            )
        start = self.sim.now
        yield from cpu.busy(self.params.wqe_post, kind="mpi")
        # Injected doorbell/DMA-engine stall: the WQE is posted but the
        # HCA picks it up late (transient, invisible to the host).
        yield from self._maybe_stall()
        record.span.phase("wqe_post", start, self.sim.now)
        done = Event(self.sim)
        self.sim.spawn(
            self._wire_proc(dst_hca, record, done),
            name=f"ib.wire{local_rank}->{record.dst_rank}",
        )
        return done

    def _wire_proc(
        self, dst_hca: "Hca", record: NetRecord, done: Event
    ) -> Generator[Event, Any, None]:
        end = yield from self.push(
            dst_hca,
            record.size + WIRE_HEADER_BYTES,
            span=record.span,
            phase="wire:" + record.kind,
            key=record.seq,
        )
        dst_hca._deliver(record)
        done.succeed(end)

    def rdma_read(
        self,
        cpu: Cpu,
        local_rank: int,
        src_hca: "Hca",
        record: NetRecord,
    ) -> Generator[Event, Any, Event]:
        """Post one RDMA read pulling ``record.size`` bytes from the peer.

        The *reading* rank pays the WQE cost; the read request travels to
        the source HCA, which streams the data back with **no source-host
        involvement** — the property that lets a read-based rendezvous
        free the sender.  The record lands in this rank's own inbox at
        completion; the returned event fires then.
        """
        if not self.is_connected(local_rank, record.src_rank):
            raise QueuePairError(
                f"rank {local_rank} has no queue pair to rank {record.src_rank}"
            )
        start = self.sim.now
        yield from cpu.busy(self.params.wqe_post, kind="mpi")
        yield from self._maybe_stall()
        record.span.phase("wqe_post", start, self.sim.now)
        done = Event(self.sim)
        self.sim.spawn(
            self._read_proc(src_hca, record, done),
            name=f"ib.read{local_rank}<-{record.src_rank}",
        )
        return done

    def _read_proc(
        self, src_hca: "Hca", record: NetRecord, done: Event
    ) -> Generator[Event, Any, None]:
        # Read request to the source NIC (header-only packet)...
        yield from self.push(
            src_hca,
            WIRE_HEADER_BYTES,
            span=record.span,
            phase="wire:rreq",
            key=record.seq,
        )
        yield self.sim.timeout(self.params.rdma_read_request)
        # ...then the source NIC streams the payload back.
        end = yield from src_hca.push(
            self,
            record.size + WIRE_HEADER_BYTES,
            span=record.span,
            phase="wire:" + record.kind,
            key=record.seq,
        )
        self._deliver(record)
        done.succeed(end)

    # -- reliable-connection recovery ---------------------------------------------

    def _push_with_link_faults(
        self, dst_nic, stages, size, faults, span=NULL_SPAN, key=None
    ) -> "Generator[Event, Any, float]":
        """End-to-end retransmit, the 4X InfiniBand recovery model.

        A reliable connection detects loss at the *transport* level: any
        corrupted packet invalidates the whole delivery attempt, the
        sender's per-QP timer expires (exponential backoff), and the HCA
        retransmits the full message.  Each attempt occupies the buses,
        engines and links for its entire serialization — lost bandwidth
        is paid for, exactly as on the real fabric.  When the retry
        counter is exhausted the QP enters the error state, surfaced as
        :class:`~repro.errors.RetryExhaustedError`.

        Hard link death extends the same machinery with Automatic Path
        Migration: when an attempt overlapped a dead link, the timer
        expires as usual, the HCA pays a seeded detection delay, and
        the QP migrates to the topology's next live d-mod-k path (or
        the opposite torus ring direction).  With no live alternate the
        error surfaces as :class:`~repro.errors.LinkDeadError`.
        """
        plan = faults.plan
        hard = faults.hard
        schedule = ib_retry_schedule(plan)
        attempts = 0
        while True:
            wire = self._fabric_stages(stages)
            start = self.sim.now
            end = yield from transfer(
                self.sim,
                stages,
                size,
                chunk=self.chunk,
                key=None if key is None else (key, attempts),
            )
            attempts += 1
            dead = []
            if hard is not None and hard.active:
                dead = [
                    st.name for st in wire
                    if hard.dead_during(st.name, start, end)
                ]
            errors = 0
            if plan.wire_faulty:
                errors = sum(
                    faults.packet_errors(st.name, size, self.chunk)
                    for st in wire
                )
            if not dead and errors == 0:
                return end
            timeout = next(schedule, None)
            if timeout is None:
                raise RetryExhaustedError(
                    f"IB transport retry budget ({plan.ib_retry_count}) "
                    f"exhausted after {attempts} attempts sending {size} B "
                    f"from node {self.node.node_id} to node "
                    f"{dst_nic.node.node_id}",
                    attempts=attempts,
                    link=dead[0] if dead else (wire[0].name if wire else ""),
                )
            self._c_retransmits.inc()
            self._c_timeout_us.inc(timeout)
            span.bump("ib_retransmits")
            span.bump("ib_timeout_us", timeout)
            faults.ib_retransmits += 1
            faults.ib_timeout_us += timeout
            if not dead:
                self.sim.trace.log(
                    self.sim.now,
                    "fault.ib.retry",
                    "node{}->node{} size={} attempt={} timeout={:g}us",
                    self.node.node_id, dst_nic.node.node_id, size, attempts,
                    timeout,
                )
                yield self.sim.timeout(timeout)
                continue
            stages = yield from self._migrate_path(
                dst_nic, dead[0], timeout, hard, span
            )

    def _migrate_path(
        self, dst_nic, dead_link, timeout, hard, span
    ) -> "Generator[Event, Any, list]":
        """One APM cycle: burnt timer, detection delay, path migration.

        Returns the rebuilt pipeline stages over the migrated route, or
        raises :class:`~repro.errors.LinkDeadError` when the topology
        has no live path left.
        """
        hard.hard_failed_attempts += 1
        hard.pending_recoveries += 1
        fo_start = self.sim.now
        self.sim.trace.log(
            self.sim.now,
            "fault.ib.path_down",
            "node{}->node{} link {} dead; timer {:g}us",
            self.node.node_id, dst_nic.node.node_id, dead_link, timeout,
        )
        yield self.sim.timeout(timeout)
        detect = hard.detection_delay(self.sim, f"hca{self.node.node_id}")
        if detect > 0.0:
            yield self.sim.timeout(detect)
        route = self.fabric.migrate(self.node.node_id, dst_nic.node.node_id)
        if route is None:
            hard.pending_recoveries -= 1
            hard.link_dead_errors += 1
            raise LinkDeadError(
                f"no live path from node {self.node.node_id} to node "
                f"{dst_nic.node.node_id}: link {dead_link} is down and "
                "automatic path migration found no alternate",
                link=dead_link,
                at_us=self.sim.now,
            )
        fo_end = self.sim.now
        span.phase("failover", fo_start, fo_end)
        span.bump("failovers")
        span.bump("failover_us", fo_end - fo_start)
        span.bump("failover_detect_us", detect)
        span.bump("failover_retransmit_us", timeout)
        hard.pending_recoveries -= 1
        hard.failovers += 1
        hard.failover_us += fo_end - fo_start
        hard.detect_us += detect
        self._c_migrations.inc()
        self.sim.trace.log(
            self.sim.now,
            "fault.ib.migrate",
            "node{}->node{} migrated around {} (detect={:.3f}us, {} link(s))",
            self.node.node_id, dst_nic.node.node_id, dead_link, detect,
            len(route),
        )
        return self.payload_stages(dst_nic)

    def _deliver(self, record: NetRecord) -> None:
        inbox = self._inboxes.get(record.dst_rank)
        if inbox is None:
            raise NetworkError(
                f"no rank {record.dst_rank} attached to HCA on node "
                f"{self.node.node_id}"
            )
        inbox.put(record)

    # -- end-of-run invariants --------------------------------------------------------

    def check_invariants(self) -> list:
        """Conservation checks on a quiesced HCA (plain dicts; see
        :func:`repro.analysis.invariants.check_invariants`)."""
        problems = []
        for rank in sorted(self._inboxes):
            inbox = self._inboxes[rank]
            if len(inbox) != 0:
                problems.append(
                    {
                        "name": "inbox_drained",
                        "message": (
                            f"rank {rank} inbox holds {len(inbox)} "
                            "undelivered record(s) at end of run"
                        ),
                        "details": {"rank": rank, "depth": len(inbox)},
                    }
                )
        for rank in sorted(self._reg_caches):
            cache = self._reg_caches[rank]
            recomputed = 0
            for nbytes in cache._regions.values():
                recomputed += nbytes
            if recomputed != cache.cached_bytes:
                problems.append(
                    {
                        "name": "reg_cache_bytes",
                        "message": (
                            f"rank {rank} pin-down cache accounts "
                            f"{cache.cached_bytes} B but regions sum to "
                            f"{recomputed} B"
                        ),
                        "details": {
                            "rank": rank,
                            "accounted": cache.cached_bytes,
                            "recomputed": recomputed,
                        },
                    }
                )
            if not 0 <= cache.cached_bytes <= self.params.reg_cache_bytes:
                problems.append(
                    {
                        "name": "reg_cache_bounds",
                        "message": (
                            f"rank {rank} pin-down cache holds "
                            f"{cache.cached_bytes} B, outside "
                            f"[0, {self.params.reg_cache_bytes}]"
                        ),
                        "details": {
                            "rank": rank,
                            "cached": cache.cached_bytes,
                            "capacity": self.params.reg_cache_bytes,
                        },
                    }
                )
        return problems

    # -- reporting -------------------------------------------------------------------

    def describe(self) -> str:
        return (
            "Voltaire HCA 400 4X InfiniBand host channel adapter "
            f"(eager <= {self.params.eager_threshold} B, "
            f"{self.params.rdma_ring_slots}-slot RDMA fast path per peer)"
        )

    def memory_footprint(self, nprocs: int) -> int:
        return self.params.memory_footprint(nprocs)
