"""The Quadrics Elan-4 adapter model with Tports on the NIC thread.

Everything the paper credits Quadrics for lives here:

* **Offload** — tag matching runs on the NIC's thread processor, a
  :class:`~repro.sim.FifoResource` shared by all ranks of the node.  Each
  matching attempt costs a base time plus per-queue-element search time at
  NIC-processor (not host) speed.
* **Independent progress** — an incoming message is matched the moment it
  arrives, regardless of what the host is doing.  The host learns of
  completion through an event write; a rank deep in a compute region never
  delays a peer's rendezvous.
* **Connectionless** — one capability per job; no per-peer state.
* **Implicit registration** — the Elan MMU translates host addresses on
  the NIC in cooperation with the OS; no host-side pinning calls, no
  registration cache, no thrash.

Large messages (> ``sync_threshold``) use a NIC-to-NIC probe/go handshake
so payload lands only after a matching receive exists; the handshake runs
entirely on the NICs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator

from ...errors import LinkDeadError, NetworkError
from ...hardware.node import Cpu, Node
from ...mpi.matching import Envelope, MatchQueue
from ...sim import Event, transfer
from ...telemetry.lifecycle import NULL_SPAN
from ..base import NetRecord, Nic
from ..params import ElanParams

if TYPE_CHECKING:  # pragma: no cover
    from ...sim import Simulator
    from ...topology.base import Topology

#: Tports wire header (route + context + tag word + size).
WIRE_HEADER_BYTES = 32
#: Probe and go control packets for the NIC-side large-message handshake.
PROBE_BYTES = 32
GO_BYTES = 16


@dataclass
class RxHandle:
    """A posted Tports receive; ``done`` fires on delivery."""

    source: int
    tag: int
    max_size: int
    done: Event
    matched_size: int = -1
    matched_source: int = -1
    matched_tag: int = -1
    #: Lifecycle span of the receive (null span when telemetry off).
    span: Any = NULL_SPAN
    #: The posting rank's receive-post index (program order) — the
    #: semantic tiebreak key for this post's NIC-thread operation.
    post_seq: int = 0


@dataclass
class TxHandle:
    """An issued Tports transmit; ``done`` fires when the buffer is free."""

    dst_rank: int
    tag: int
    size: int
    done: Event


@dataclass
class _Probe:
    """A parked large-message probe awaiting a matching receive."""

    record: NetRecord
    src_nic: "ElanNic"
    go_event: Event
    pair_id: int = field(default=0)


class ElanNic(Nic):
    """One Elan-4 adapter serving all ranks of its node."""

    _stall_component = "elan"

    def __init__(
        self,
        sim: "Simulator",
        node: Node,
        fabric: "Topology",
        params: ElanParams,
    ) -> None:
        super().__init__(
            sim,
            node,
            fabric,
            tx_processing=params.nic_tx_processing,
            rx_processing=params.nic_rx_processing,
            chunk=params.fabric.mtu,
        )
        self.params = params
        from ...sim import FifoResource

        #: The NIC thread processor: all matching and protocol work for
        #: every rank on this node serializes here.
        self.thread = FifoResource(sim, name=f"elan{node.node_id}.thr")
        #: Per-rank Tports context: posted receives and unexpected queue.
        self._posted: Dict[int, MatchQueue[RxHandle]] = {}
        self._unexpected: Dict[int, MatchQueue[Any]] = {}
        #: Large-message pairings: pair_id -> RxHandle awaiting payload.
        self._paired: Dict[int, RxHandle] = {}
        self._pair_seq = 0
        #: Per-rank receive-post counters (tiebreak keys; program order).
        self._post_counts: Dict[int, int] = {}
        #: Unexpected payload bytes currently buffered in system memory.
        self.buffered_bytes = 0
        self.max_buffered_bytes = 0
        self._c_match_attempts = sim.metrics.counter("elan.thread.match_attempts")
        self._h_match_cost = sim.metrics.histogram("elan.thread.match_cost_us")
        self._c_unexpected = sim.metrics.counter("elan.thread.unexpected_parked")
        self._c_link_retries = sim.metrics.counter("elan.link.crc_retries")
        self._c_rail_switches = sim.metrics.counter("elan.link.rail_switches")
        #: Tports system-buffer occupancy channel (null when sampling off).
        self._ch_buffered = sim.telemetry.series.channel(
            f"elan{node.node_id}.buffered_bytes"
        )

    # -- rank attach -----------------------------------------------------------

    def attach_rank(self, rank: int) -> None:
        """Create the Tports context for ``rank`` on this node."""
        if rank in self._posted:
            raise NetworkError(f"rank {rank} already attached to Elan NIC")
        self._posted[rank] = MatchQueue()
        self._unexpected[rank] = MatchQueue()
        self._post_counts[rank] = 0

    # -- thread processor helper ----------------------------------------------------

    def _thread_run(self, cost_fn, key: Any = None) -> Generator[Event, Any, Any]:
        """Serialize one operation on the NIC thread processor.

        ``cost_fn`` is evaluated *after* the thread is acquired so queue
        lengths reflect execution time; it returns ``(cost, effect_fn)``
        where ``effect_fn`` applies state changes and returns a value.
        An injected offload-thread pause lands here — after the grant,
        before the work — so it delays every queued operation behind it,
        exactly how a stalled NIC processor hurts.

        ``key`` names the operation for same-time tiebreak auditing —
        the wire sequence of the record being serviced for arrivals,
        the rank's posting index for receive posts.
        """
        req = self.thread.request(key=key)
        yield req
        yield from self._maybe_stall()
        cost, effect = cost_fn()
        if cost > 0.0:
            yield self.sim.timeout(cost)
        try:
            return effect()
        finally:
            self.thread.release(req)

    def _local_copy_time(self, size: int) -> float:
        """NIC DMA copying within host memory crosses PCI-X twice."""
        return 2.0 * size / self.node.spec.pcix_bandwidth

    def _note_match(self, searched: int) -> float:
        """Account one NIC-thread matching attempt; returns its cost.

        Centralizes the base + per-element cost formula so every match
        site (posted receive, eager arrival, probe arrival) feeds the
        same telemetry: attempt count and per-attempt cost distribution.
        """
        p = self.params
        cost = p.thread_match_base + p.thread_match_per_element * searched
        self._c_match_attempts.inc()
        self._h_match_cost.observe(cost)
        return cost

    # -- link-level recovery ---------------------------------------------------

    def _push_with_link_faults(
        self, dst_nic, stages, size, faults, span=NULL_SPAN, key=None
    ) -> Generator[Event, Any, float]:
        """Link-level CRC detect + immediate hardware retry (Elan-4).

        Each QsNetII link checks packet CRCs in hardware and retries a
        corrupted packet immediately, back-to-back — the error never
        propagates past the link, so MPI sees only added latency.
        Retried packets cross the same wire and can be corrupted again;
        the loop drains geometrically.  The added time is charged after
        the clean pipeline completes (retries serialize on the wire but
        are invisible to the protocol layer above).

        A *dead* link is where this architecture's recovery story ends:
        the hardware retry counter exhausts against a wire that will
        never ack, and with a single rail the failure surfaces to the
        job as :class:`~repro.errors.LinkDeadError` — the architectural
        asymmetry the paper's reliability comparison turns on.  Dual
        rail configurations (``elan_rails > 1``) re-issue the transfer
        on the other rail instead.
        """
        start = self.sim.now
        end = yield from transfer(
            self.sim, stages, size, chunk=self.chunk, key=key
        )
        plan = faults.plan
        hard = faults.hard
        wire = self._fabric_stages(stages)
        if hard is not None and hard.active:
            for st in wire:
                if hard.dead_during(st.name, start, end):
                    end = yield from self._hard_link_failure(
                        dst_nic, st, size, faults, span, key
                    )
                    return end
        if not plan.wire_faulty:
            return end
        extra = 0.0
        retries = 0
        for st in wire:
            bad = faults.packet_errors(st.name, size, self.chunk)
            while bad:
                retries += bad
                # One full-MTU re-serialization plus CRC-detect
                # turnaround per retried packet.
                extra += bad * (
                    st.chunk_time(self.chunk) + plan.elan_retry_turnaround_us
                )
                bad = faults.retry_errors(st.name, bad, self.chunk)
        if retries:
            self._c_link_retries.inc(retries)
            span.bump("elan_link_retries", retries)
            faults.elan_link_retries += retries
            self.sim.trace.log(
                self.sim.now,
                "fault.elan.retry",
                "node{}->node{} size={} link_retries={} extra={:.3f}us",
                self.node.node_id, dst_nic.node.node_id, size, retries, extra,
            )
            yield self.sim.timeout(extra)
            end = self.sim.now
        return end

    def _hard_link_failure(
        self, dst_nic, st, size, faults, span, key
    ) -> Generator[Event, Any, float]:
        """CRC exhaustion against a dead link: rail failover or error.

        The link-level retry counter burns ``elan_dead_retry_limit``
        full-MTU resends (each plus the CRC turnaround) before the NIC
        declares the link down.  Single rail: structured
        :class:`~repro.errors.LinkDeadError` naming the link.  Dual
        rail: pay ``rail_switch_us``, migrate routing where the shape
        allows, and re-issue the payload on the other rail.
        """
        plan = faults.plan
        hard = faults.hard
        retries = plan.elan_dead_retry_limit
        burn = retries * (
            st.chunk_time(self.chunk) + plan.elan_retry_turnaround_us
        )
        self._c_link_retries.inc(retries)
        span.bump("elan_link_retries", retries)
        faults.elan_link_retries += retries
        hard.hard_failed_attempts += 1
        self.sim.trace.log(
            self.sim.now,
            "fault.elan.link_dead",
            "node{}->node{} link {} dead; {} CRC retries exhausted ({:.3f}us)",
            self.node.node_id, dst_nic.node.node_id, st.name, retries, burn,
        )
        fo_start = self.sim.now
        yield self.sim.timeout(burn)
        if plan.elan_rails < 2:
            hard.link_dead_errors += 1
            raise LinkDeadError(
                f"Elan-4 link-level retry exhausted: link {st.name} is "
                f"dead and node {self.node.node_id} has no alternate rail "
                f"(elan_rails={plan.elan_rails})",
                link=st.name,
                at_us=self.sim.now,
            )
        hard.pending_recoveries += 1
        yield self.sim.timeout(plan.rail_switch_us)
        # Install an alternate route when this rail's topology has one;
        # either way the re-issue goes out — the second rail is an
        # independent fabric that physically bypasses the dead link.
        self.fabric.migrate(self.node.node_id, dst_nic.node.node_id)
        stages = self.payload_stages(dst_nic)
        fo_end = self.sim.now
        span.phase("failover", fo_start, fo_end)
        span.bump("failovers")
        span.bump("failover_us", fo_end - fo_start)
        span.bump("rail_switches")
        end = yield from transfer(
            self.sim, stages, size, chunk=self.chunk,
            key=None if key is None else (key, "rail"),
        )
        hard.pending_recoveries -= 1
        hard.rail_switches += 1
        hard.failovers += 1
        hard.failover_us += fo_end - fo_start
        self._c_rail_switches.inc()
        self.sim.trace.log(
            self.sim.now,
            "fault.elan.rail_switch",
            "node{}->node{} re-issued {} B on alternate rail after {} death",
            self.node.node_id, dst_nic.node.node_id, size, st.name,
        )
        return end

    # -- transmit ------------------------------------------------------------------

    def tx(
        self,
        cpu: Cpu,
        local_rank: int,
        dst_nic: "ElanNic",
        dst_rank: int,
        tag: int,
        size: int,
        span=NULL_SPAN,
    ) -> TxHandle:
        """Issue a Tports transmit; returns immediately with a handle.

        The host pays only the command-post cost (charged asynchronously
        on ``cpu``); the NIC executes the rest.  ``handle.done`` fires when
        the send buffer is reusable (payload fully injected).
        """
        self.sim.trace.log(
            self.sim.now,
            "elan.tx",
            "r{}->r{} tag={} size={} {}",
            local_rank, dst_rank, tag, size,
            "sync" if size > self.params.sync_threshold else "eager",
        )
        handle = TxHandle(dst_rank=dst_rank, tag=tag, size=size, done=Event(self.sim))
        self.sim.spawn(
            self._tx_proc(cpu, local_rank, dst_nic, dst_rank, tag, size, handle, span),
            name=f"elan.tx{local_rank}->{dst_rank}",
        )
        return handle

    def _tx_proc(
        self,
        cpu: Cpu,
        local_rank: int,
        dst_nic: "ElanNic",
        dst_rank: int,
        tag: int,
        size: int,
        handle: TxHandle,
        span=NULL_SPAN,
    ) -> Generator[Event, Any, None]:
        start = self.sim.now
        yield from cpu.busy(self.params.command_post, kind="mpi")
        span.phase("command_post", start, self.sim.now)
        if size > self.params.sync_threshold:
            yield from self._tx_large(
                local_rank, dst_nic, dst_rank, tag, size, handle, span
            )
        else:
            yield from self._tx_eager(
                local_rank, dst_nic, dst_rank, tag, size, handle, span
            )

    def _tx_eager(
        self,
        local_rank: int,
        dst_nic: "ElanNic",
        dst_rank: int,
        tag: int,
        size: int,
        handle: TxHandle,
        span=NULL_SPAN,
    ) -> Generator[Event, Any, None]:
        record = NetRecord(
            kind="tport", src_rank=local_rank, dst_rank=dst_rank, size=size,
            tag=tag, span=span,
        )
        yield from self.push(
            dst_nic,
            size + WIRE_HEADER_BYTES,
            span=span,
            phase="wire:tport",
            key=record.seq,
        )
        handle.done.succeed(self.sim.now)
        span.finish(self.sim.now)
        # Arrival processing runs on the destination NIC thread.
        self.sim.spawn(
            dst_nic._rx_arrival(record), name=f"elan.arr{dst_rank}"
        )

    def _tx_large(
        self,
        local_rank: int,
        dst_nic: "ElanNic",
        dst_rank: int,
        tag: int,
        size: int,
        handle: TxHandle,
        span=NULL_SPAN,
    ) -> Generator[Event, Any, None]:
        go_event = Event(self.sim)
        record = NetRecord(
            kind="tport-probe",
            src_rank=local_rank,
            dst_rank=dst_rank,
            size=size,
            tag=tag,
            span=span,
        )
        probe = _Probe(record=record, src_nic=self, go_event=go_event)
        yield from self.push(
            dst_nic, PROBE_BYTES, span=span, phase="wire:probe", key=record.seq
        )
        self.sim.spawn(dst_nic._probe_arrival(probe), name=f"elan.probe{dst_rank}")
        pair_id = yield go_event
        # Matching receive exists; move the payload NIC-to-NIC.
        rx = dst_nic._paired.get(pair_id)
        if rx is not None:
            span.edge(self.sim.now, rx.span, "go")
        yield from self.push(
            dst_nic,
            size + WIRE_HEADER_BYTES,
            span=span,
            phase="wire:payload",
            key=record.seq,
        )
        handle.done.succeed(self.sim.now)
        span.finish(self.sim.now)
        self.sim.spawn(
            dst_nic._payload_arrival(pair_id, size, span),
            name=f"elan.pay{dst_rank}",
        )

    # -- receive ----------------------------------------------------------------------

    def post_rx(
        self,
        cpu: Cpu,
        local_rank: int,
        source: int,
        tag: int,
        max_size: int,
        span=NULL_SPAN,
    ) -> RxHandle:
        """Post a Tports receive; returns immediately with a handle.

        ``handle.done`` fires when a matching message has been delivered
        into the user buffer — possibly before this host rank looks at it
        again (independent progress).
        """
        self._post_counts[local_rank] += 1
        handle = RxHandle(
            source=source, tag=tag, max_size=max_size, done=Event(self.sim),
            span=span, post_seq=self._post_counts[local_rank],
        )
        self.sim.spawn(
            self._post_rx_proc(cpu, local_rank, handle),
            name=f"elan.rx{local_rank}",
        )
        return handle

    def _post_rx_proc(
        self, cpu: Cpu, local_rank: int, handle: RxHandle
    ) -> Generator[Event, Any, None]:
        start = self.sim.now
        yield from cpu.busy(self.params.command_post, kind="mpi")
        handle.span.phase("command_post", start, self.sim.now)
        posting = Envelope(handle.source, handle.tag)
        unexpected = self._unexpected[local_rank]
        posted = self._posted[local_rank]
        p = self.params

        def cost_fn():
            # Search unexpected first (MPI ordering), then park in posted.
            item, searched = unexpected.find_for_posting(posting)
            cost = self._note_match(searched)
            if item is None:
                def effect():
                    posted.append(posting, handle)
                    return None
                return cost, effect
            if isinstance(item, _Probe):
                cost += p.thread_dma_setup

                def effect():
                    return ("probe", item)
                return cost, effect
            record = item
            cost += p.thread_dma_setup + self._local_copy_time(record.size)

            def effect():
                self.buffered_bytes -= record.size
                self._ch_buffered.record(self.sim.now, self.buffered_bytes)
                return ("data", record)
            return cost, effect

        result = yield from self._thread_run(
            cost_fn, key=("post", local_rank, handle.post_seq)
        )
        if result is None:
            return
        kind, item = result
        if kind == "data":
            record: NetRecord = item
            handle.span.relabel("tport")
            handle.span.note("matched_on_arrival", 0)
            handle.span.edge(record.span.last_end, record.span, "nic_match")
            self._complete_rx(handle, record)
            yield self.sim.timeout(0.0)
        else:
            probe: _Probe = item
            handle.span.relabel("tport-sync")
            handle.span.note("matched_on_arrival", 0)
            handle.span.edge(
                probe.record.span.last_end, probe.record.span, "nic_match"
            )
            self._pair_seq += 1
            pair_id = self._pair_seq
            self._paired[pair_id] = handle
            # Send "go" back to the source NIC: pure NIC-to-NIC traffic.
            yield from self.push(
                probe.src_nic,
                GO_BYTES,
                span=handle.span,
                phase="wire:go",
                key=probe.record.seq,
            )
            probe.go_event.succeed(pair_id)

    # -- arrival handlers (run at the destination NIC) -------------------------------

    def _rx_arrival(self, record: NetRecord) -> Generator[Event, Any, None]:
        incoming = Envelope(record.src_rank, record.tag)
        posted = self._posted[record.dst_rank]
        unexpected = self._unexpected[record.dst_rank]
        p = self.params

        def cost_fn():
            handle, searched = posted.find_for_incoming(incoming)
            cost = self._note_match(searched)
            if handle is not None:
                cost += p.thread_dma_setup

                def effect():
                    return handle
                return cost, effect

            def effect():
                # Park payload in the Tports system buffer.
                self._c_unexpected.inc()
                self.buffered_bytes += record.size
                self._ch_buffered.record(self.sim.now, self.buffered_bytes)
                if self.buffered_bytes > self.max_buffered_bytes:
                    self.max_buffered_bytes = self.buffered_bytes
                if self.buffered_bytes > p.system_buffer_bytes:
                    raise NetworkError(
                        "Tports system buffer overflow on node "
                        f"{self.node.node_id}: {self.buffered_bytes} bytes"
                    )
                unexpected.append(incoming, record)
                return None
            return cost, effect

        handle = yield from self._thread_run(cost_fn, key=("arr", record.seq))
        self.sim.trace.log(
            self.sim.now,
            "elan.match",
            "r{0.dst_rank} {1} from r{0.src_rank} tag={0.tag} size={0.size}",
            record, "matched" if handle else "parked",
        )
        if handle is not None:
            handle.span.relabel("tport")
            handle.span.note("matched_on_arrival", 1)
            handle.span.edge(record.span.last_end, record.span, "nic_match")
            self._complete_rx(handle, record)

    def _probe_arrival(self, probe: _Probe) -> Generator[Event, Any, None]:
        record = probe.record
        incoming = Envelope(record.src_rank, record.tag)
        posted = self._posted[record.dst_rank]
        unexpected = self._unexpected[record.dst_rank]

        def cost_fn():
            handle, searched = posted.find_for_incoming(incoming)
            cost = self._note_match(searched)

            def effect():
                if handle is None:
                    self._c_unexpected.inc()
                    unexpected.append(incoming, probe)
                return handle
            return cost, effect

        handle = yield from self._thread_run(cost_fn, key=("probe", record.seq))
        if handle is not None:
            handle.span.relabel("tport-sync")
            handle.span.note("matched_on_arrival", 1)
            handle.span.edge(record.span.last_end, record.span, "nic_match")
            self._pair_seq += 1
            pair_id = self._pair_seq
            self._paired[pair_id] = handle
            handle.matched_source = record.src_rank
            handle.matched_tag = record.tag
            yield from self.push(
                probe.src_nic,
                GO_BYTES,
                span=handle.span,
                phase="wire:go",
                key=record.seq,
            )
            probe.go_event.succeed(pair_id)

    def _payload_arrival(
        self, pair_id: int, size: int, span=NULL_SPAN
    ) -> Generator[Event, Any, None]:
        handle = self._paired.pop(pair_id, None)
        if handle is None:
            raise NetworkError(f"payload for unknown pairing {pair_id}")
        p = self.params

        def cost_fn():
            return p.thread_dma_setup, lambda: None

        yield from self._thread_run(cost_fn, key=("pay", pair_id))
        handle.span.edge(span.last_end, span, "dma_setup")
        record = NetRecord(
            kind="tport",
            src_rank=handle.matched_source,
            dst_rank=-1,
            size=size,
            tag=handle.matched_tag,
            span=span,
        )
        self._complete_rx(handle, record)

    def _complete_rx(self, handle: RxHandle, record: NetRecord) -> None:
        from ...errors import TruncationError

        if record.size > handle.max_size:
            handle.span.note("error", "truncation")
            handle.span.finish(self.sim.now)
            handle.done.fail(
                TruncationError(
                    f"message of {record.size} B truncates receive of "
                    f"{handle.max_size} B"
                )
            )
            return
        handle.matched_size = record.size
        handle.matched_source = record.src_rank
        handle.matched_tag = record.tag
        # Event word write + host observation latency.
        now = self.sim.now
        handle.span.phase("event_delivery", now, now + self.params.event_delivery)
        handle.span.finish(now + self.params.event_delivery)
        self.sim.spawn(
            _delayed_succeed(self.sim, self.params.event_delivery, handle.done),
            name="elan.evt",
        )

    # -- end-of-run invariants ---------------------------------------------------------

    def check_invariants(self) -> list:
        """Conservation checks on a quiesced NIC (plain dicts; see
        :func:`repro.analysis.invariants.check_invariants`)."""
        problems = []
        if self._paired:
            problems.append(
                {
                    "name": "pairings_resolved",
                    "message": (
                        f"{len(self._paired)} large-message pairing(s) "
                        "still awaiting payload at end of run"
                    ),
                    "details": {"pair_ids": sorted(self._paired)},
                }
            )
        for rank in sorted(self._posted):
            posted = len(self._posted[rank])
            unexpected = len(self._unexpected[rank])
            if posted:
                problems.append(
                    {
                        "name": "posted_drained",
                        "message": (
                            f"rank {rank} still has {posted} posted "
                            "receive(s) unmatched at end of run"
                        ),
                        "details": {"rank": rank, "posted": posted},
                    }
                )
            if unexpected:
                problems.append(
                    {
                        "name": "unexpected_drained",
                        "message": (
                            f"rank {rank} still has {unexpected} unexpected "
                            "arrival(s) unclaimed at end of run"
                        ),
                        "details": {"rank": rank, "unexpected": unexpected},
                    }
                )
        # The Tports system-buffer account must match the parked records.
        recomputed = 0
        for rank in sorted(self._unexpected):
            for item in self._unexpected[rank].items():
                if isinstance(item, NetRecord):
                    recomputed += item.size
        if recomputed != self.buffered_bytes:
            problems.append(
                {
                    "name": "buffered_bytes",
                    "message": (
                        f"system buffer accounts {self.buffered_bytes} B "
                        f"but parked records sum to {recomputed} B"
                    ),
                    "details": {
                        "accounted": self.buffered_bytes,
                        "recomputed": recomputed,
                    },
                }
            )
        if not 0 <= self.buffered_bytes <= self.params.system_buffer_bytes:
            problems.append(
                {
                    "name": "buffered_bounds",
                    "message": (
                        f"system buffer holds {self.buffered_bytes} B, "
                        f"outside [0, {self.params.system_buffer_bytes}]"
                    ),
                    "details": {
                        "buffered": self.buffered_bytes,
                        "capacity": self.params.system_buffer_bytes,
                    },
                }
            )
        return problems

    # -- reporting ---------------------------------------------------------------------

    def describe(self) -> str:
        return (
            "Quadrics QM-500 Elan-4 adapter (Tports on NIC thread, "
            f"sync threshold {self.params.sync_threshold} B, connectionless)"
        )

    def memory_footprint(self, nprocs: int) -> int:
        return self.params.memory_footprint(nprocs)

    def queue_depths(self, rank: int) -> "tuple[int, int]":
        """(posted, unexpected) queue lengths for one rank (diagnostics)."""
        return len(self._posted[rank]), len(self._unexpected[rank])


def _delayed_succeed(sim: "Simulator", delay: float, event: Event):
    yield sim.timeout(delay)
    event.succeed(sim.now)
