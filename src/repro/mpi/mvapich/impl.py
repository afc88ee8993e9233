"""MVAPICH-style MPI over the InfiniBand HCA model.

Faithful to the 0.9.2-era design the paper measured:

* **Eager path** (messages <= 1 KB): the host copies the payload into a
  pre-registered per-peer RDMA ring, the HCA RDMA-writes it into the
  peer's ring, and the *receiving host* discovers it by polling.  Two host
  copies per message, both polluting the cache.
* **Rendezvous path**: RTS -> (receiver registers + CTS) -> RDMA data ->
  completion.  Every protocol step on either host runs **only inside MPI
  library calls** — there is no independent progress (Section 3.3.3).  An
  RTS arriving while the target rank is computing waits in the inbox.
* **Host matching**: tag matching runs on the host CPU, charged per queue
  element (Section 3.3.4's "no offload").
* **Registration**: rendezvous buffers go through the pin-down cache of
  :mod:`repro.networks.ib.memreg`, including its 4 MB thrash.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Tuple

from ...errors import MpiError, TruncationError
from ...networks.base import NetRecord
from ...networks.ib import Hca
from ...networks.params import IBParams
from ...sim import Event, Store
from ...telemetry.series import NULL_CHANNEL
from ..context import MpiImpl, RankContext
from ..matching import (
    ANY_SOURCE,
    Envelope,
    MatchQueue,
    validate_rank,
    validate_tag,
)
from ..request import Request

if TYPE_CHECKING:  # pragma: no cover
    from ...sim import Simulator


class _SendState:
    """Sender-side record of a rendezvous in flight."""

    __slots__ = ("request", "dest", "size", "buf")

    def __init__(self, request: Request, dest: int, size: int, buf: Any) -> None:
        self.request = request
        self.dest = dest
        self.size = size
        self.buf = buf


class _MvState:
    """Per-rank MVAPICH protocol state."""

    def __init__(self, inbox: Store, ring_slots: int) -> None:
        self.inbox = inbox
        self.posted: MatchQueue[Request] = MatchQueue()
        self.unexpected: MatchQueue[NetRecord] = MatchQueue()
        self.pending_sends: Dict[int, _SendState] = {}
        self.pending_recvs: Dict[int, Request] = {}
        self.send_seq = 0
        #: Eager-ring flow control: remaining slots in each peer's ring
        #: dedicated to *this* sender.  A slot is consumed per eager send
        #: and returned once the receiving host copies the message out.
        self.ring_slots = ring_slots
        self.credits: Dict[int, int] = {}
        self.credit_waiters: Dict[int, Event] = {}
        #: Eager slots currently consumed across all destinations, and
        #: its series channel (replaced with the live one when sampling
        #: is enabled; see ``register_rank``).
        self.credits_outstanding = 0
        self.credit_chan = NULL_CHANNEL
        # -- statistics ----------------------------------------------------
        self.eager_sends = 0
        self.rndv_sends = 0
        self.host_copies_bytes = 0
        self.credit_stalls = 0

    def credits_to(self, dest: int) -> int:
        return self.credits.setdefault(dest, self.ring_slots)


class MvapichImpl(MpiImpl):
    """The InfiniBand MPI implementation (one instance per machine).

    ``progress_thread=True`` enables the ablation the paper's future-work
    section asks about: a helper thread that services the inbox even while
    the application computes, buying independent progress at the price of
    per-event CPU interference with the compute (the thread shares the
    rank's processor).  The 2004 stack did not have this; the option
    exists to isolate how much of the Quadrics advantage independent
    progress alone explains.
    """

    name = "MVAPICH 0.9.2 (model)"
    independent_progress = False
    offload = False

    #: Extra host cost per record when handled by the progress thread
    #: (wakeup + lock traffic on top of the normal handling cost).
    PROGRESS_THREAD_WAKEUP = 1.5

    def __init__(
        self,
        sim: "Simulator",
        params: IBParams,
        progress_thread: bool = False,
    ) -> None:
        self.sim = sim
        self.params = params
        self.progress_thread = progress_thread
        if progress_thread:
            self.independent_progress = True
        #: rank -> (context, HCA); filled by the machine builder.
        self._ranks: Dict[int, Tuple[RankContext, Hca]] = {}
        # Machine-wide protocol counters (per-rank splits remain in
        # finalize_stats); no-ops when telemetry is disabled.
        m = sim.metrics
        self._c_eager = m.counter("mvapich.eager_sends")
        self._c_rndv = m.counter("mvapich.rndv_sends")
        self._c_rts = m.counter("mvapich.rts_sent")
        self._c_cts = m.counter("mvapich.cts_sent")
        self._c_fin = m.counter("mvapich.fin_sent")
        self._c_match = m.counter("mvapich.match_attempts")
        self._c_match_searched = m.counter("mvapich.match_elements_searched")
        self._c_credit_stalls = m.counter("mvapich.credit_stalls")
        self._c_unexpected = m.counter("mvapich.unexpected_msgs")

    # -- wiring -------------------------------------------------------------

    def register_rank(self, ctx: RankContext, hca: Hca) -> None:
        """Bind a rank to its HCA; creates inbox and protocol state."""
        inbox = hca.attach_rank(ctx.rank)
        state = _MvState(inbox, self.params.rdma_ring_slots)
        state.credit_chan = self.sim.telemetry.series.channel(
            f"mvapich.r{ctx.rank}.credits_outstanding"
        )
        ctx.impl_state = state
        self._ranks[ctx.rank] = (ctx, hca)
        if self.progress_thread:
            self.sim.spawn(
                self._progress_thread_loop(ctx),
                name=f"ib.prog{ctx.rank}",
                daemon=True,
            )

    def _progress_thread_loop(self, ctx: RankContext):
        """Ablation: service the inbox continuously (see class docstring).

        With the thread enabled it is the *sole* inbox consumer; blocking
        waits sleep on the request event instead of polling.  Each record
        pays a wakeup cost on the rank's CPU on top of normal handling —
        progress no longer requires library calls, but it still steals
        host cycles, unlike NIC offload.
        """
        state: _MvState = ctx.impl_state
        while True:
            record = yield state.inbox.get()
            yield from ctx.cpu.busy(self.PROGRESS_THREAD_WAKEUP, kind="mpi")
            yield from self._handle(ctx, record)

    def _peer_hca(self, rank: int) -> Hca:
        try:
            return self._ranks[rank][1]
        except KeyError:
            raise MpiError(f"rank {rank} not registered with MVAPICH model")

    def init(self, ctx: RankContext) -> Generator[Event, Any, None]:
        """MPI_Init: establish a queue pair to every peer (0.9.2 behaviour)."""
        hca = self._ranks[ctx.rank][1]
        for peer in range(ctx.size):
            if peer != ctx.rank:
                yield from hca.connect(ctx.cpu, ctx.rank, peer)

    # -- send ------------------------------------------------------------------

    def isend(
        self, ctx: RankContext, dest: int, size: int, tag: int, buf: Any
    ) -> Generator[Event, Any, Request]:
        validate_rank(dest, ctx.size, "destination")
        validate_tag(tag)
        if size < 0:
            raise MpiError(f"negative message size: {size}")
        state: _MvState = ctx.impl_state
        hca = self._ranks[ctx.rank][1]
        eager = size <= self.params.eager_threshold
        span = self.sim.lifecycle.start(
            "send", ctx.rank, dest, tag, size,
            "eager" if eager else "rndv", self.sim.now,
        )
        req = Request(
            kind="send", peer=dest, tag=tag, size=size,
            done=Event(self.sim), span=span,
        )
        ctx.sends += 1
        ctx.bytes_sent += size
        self.sim.trace.log(
            self.sim.now,
            "ib.send",
            "r{}->r{} tag={} size={} {}",
            ctx.rank, dest, tag, size, "eager" if eager else "rndv",
        )
        if eager:
            state.eager_sends += 1
            self._c_eager.inc()
            # Flow control: an eager send needs a free slot in the
            # destination's per-sender ring.  When the ring is full (the
            # receiver has not been in the library to drain it), the
            # sender stalls *inside* isend, progressing its own inbox.
            start = self.sim.now
            yield from self._acquire_credit(ctx, dest)
            span.phase("credit_wait", start, self.sim.now)
            # Copy into the pre-registered ring, then RDMA it over.
            start = self.sim.now
            yield from ctx.node.host_copy(size)
            span.phase("eager_copy", start, self.sim.now)
            state.host_copies_bytes += size
            ctx.charge_pollution(size)
            record = NetRecord(
                kind="eager", src_rank=ctx.rank, dst_rank=dest, size=size,
                tag=tag, span=span,
            )
            wire_done = yield from hca.rdma_write(
                ctx.cpu, ctx.rank, self._peer_hca(dest), record
            )
            # Buffer reusable immediately after the copy: complete locally.
            # The span stays open until the wire delivers (its wire:eager
            # phase lands then), so it is finished from a callback.
            req.complete(source=ctx.rank, tag=tag, size=size)
            if wire_done.triggered:
                span.finish(self.sim.now)
            else:
                wire_done.add_callback(
                    lambda _ev: span.finish(self.sim.now)
                )
            return req
        # Rendezvous.
        state.rndv_sends += 1
        self._c_rndv.inc()
        self._c_rts.inc()
        state.send_seq += 1
        send_id = (ctx.rank << 24) + state.send_seq
        key = buf if buf is not None else ("send", ctx.rank, dest)
        yield from hca.reg_cache(ctx.rank).ensure(ctx.cpu, key, size, span)
        state.pending_sends[send_id] = _SendState(req, dest, size, buf)
        rts = NetRecord(
            kind="rts",
            src_rank=ctx.rank,
            dst_rank=dest,
            size=self.params.control_bytes,
            tag=tag,
            meta=(send_id, size),
            span=span,
        )
        yield from hca.rdma_write(ctx.cpu, ctx.rank, self._peer_hca(dest), rts)
        return req

    # -- receive -----------------------------------------------------------------

    def irecv(
        self, ctx: RankContext, source: int, tag: int, size: int, buf: Any
    ) -> Generator[Event, Any, Request]:
        if source != ANY_SOURCE:
            validate_rank(source, ctx.size, "source")
        state: _MvState = ctx.impl_state
        span = self.sim.lifecycle.start(
            "recv", ctx.rank, source, tag, size, "recv", self.sim.now
        )
        req = Request(
            kind="recv", peer=source, tag=tag, size=size,
            done=Event(self.sim), span=span,
        )
        req.impl_state = buf
        ctx.recvs += 1
        posting = Envelope(source, tag)
        # Match-or-post must be atomic (no yields in between): a record
        # being handled concurrently by the progress thread must either
        # see this posting or have parked in the unexpected queue.
        record, searched = state.unexpected.find_for_posting(posting)
        if record is None:
            state.posted.append(posting, req)
            yield from self._charge_match(ctx, searched)
            return req
        start = self.sim.now
        yield from self._charge_match(ctx, searched)
        span.phase("host_match", start, self.sim.now)
        if record.kind == "eager":
            yield from self._deliver_eager(ctx, record, req)
        elif record.kind == "rts":
            yield from self._answer_rts(ctx, record, req)
        else:  # pragma: no cover - defensive
            raise MpiError(f"unexpected queue held {record.kind!r}")
        return req

    # -- progress engine -----------------------------------------------------------

    def wait(
        self, ctx: RankContext, request: Request
    ) -> Generator[Event, Any, None]:
        """Poll/handle inbox records until ``request`` completes.

        This loop *is* MVAPICH's progress engine: every protocol step of
        every outstanding operation of this rank happens here (or inside
        isend/irecv/test).  While a rank computes, nothing moves.

        With the progress-thread ablation enabled, the thread owns the
        inbox and the wait simply sleeps on the completion event.
        """
        state: _MvState = ctx.impl_state
        if self.progress_thread:
            yield request.done
            return
        while not request.completed:
            get_ev = state.inbox.get()
            if get_ev.triggered:
                record = get_ev.value
                yield from self._handle(ctx, record)
                continue
            # Nothing to do: MVAPICH blocks by *spin-polling* the CQ,
            # loading the shared front-side bus; co-resident compute pays.
            ctx.node.spinning += 1
            try:
                yield self.sim.any_of([request.done, get_ev])
            finally:
                ctx.node.spinning -= 1
            if get_ev.triggered:
                yield from self._handle(ctx, get_ev.value)
            else:
                state.inbox.cancel_get(get_ev)
        if request.done._exception is not None:
            yield request.done  # re-raise the protocol failure

    def test(
        self, ctx: RankContext, request: Request
    ) -> Generator[Event, Any, bool]:
        state: _MvState = ctx.impl_state
        if self.progress_thread:
            yield from ctx.cpu.busy(self.params.cq_poll, kind="mpi")
            return request.completed
        record = state.inbox.try_get()
        if record is not None:
            yield from self._handle(ctx, record)
        else:
            yield from ctx.cpu.busy(self.params.cq_poll, kind="mpi")
        return request.completed

    #: Cache footprint of handling one protocol record on the host
    #: (descriptor, queue nodes, CQE cachelines) — charged as pollution.
    PROTOCOL_EVENT_FOOTPRINT = 8192

    def _handle(
        self, ctx: RankContext, record: NetRecord
    ) -> Generator[Event, Any, None]:
        """Process one delivered record on the host CPU."""
        state: _MvState = ctx.impl_state
        self.sim.trace.log(
            self.sim.now,
            "ib.handle",
            "r{0} {1.kind} from r{1.src_rank} tag={1.tag} size={1.size}",
            ctx.rank, record,
        )
        yield from ctx.cpu.busy(self.params.cq_poll, kind="mpi")
        ctx.charge_pollution(self.PROTOCOL_EVENT_FOOTPRINT)
        if record.kind == "eager":
            incoming = Envelope(record.src_rank, record.tag)
            # Atomic match-or-park (see irecv); costs charged after.
            req, searched = state.posted.find_for_incoming(incoming)
            if req is None:
                state.unexpected.append(incoming, record)
                self._c_unexpected.inc()
                yield from self._charge_match(ctx, searched)
                # Copy out of the ring into the unexpected buffer.
                yield from ctx.node.host_copy(record.size)
                state.host_copies_bytes += record.size
                ctx.charge_pollution(record.size)
            else:
                start = self.sim.now
                yield from self._charge_match(ctx, searched)
                req.span.phase("host_match", start, self.sim.now)
                yield from self._deliver_eager(ctx, record, req)
            # Either way the ring slot is free again: return the credit.
            self._return_credit(ctx.rank, record.src_rank)
        elif record.kind == "rts":
            incoming = Envelope(record.src_rank, record.tag)
            req, searched = state.posted.find_for_incoming(incoming)
            if req is None:
                state.unexpected.append(incoming, record)
                self._c_unexpected.inc()
                yield from self._charge_match(ctx, searched)
            else:
                start = self.sim.now
                yield from self._charge_match(ctx, searched)
                req.span.phase("host_match", start, self.sim.now)
                yield from self._answer_rts(ctx, record, req)
        elif record.kind == "cts":
            yield from self._start_data(ctx, record)
        elif record.kind == "rdata":
            send_id = record.meta
            req = state.pending_recvs.pop(send_id, None)
            if req is None:
                raise MpiError(f"rdata for unknown rendezvous {send_id}")
            ctx.bytes_received += record.size
            req.span.edge(record.span.last_end, record.span, "host_poll")
            req.complete(source=record.src_rank, tag=record.tag, size=record.size)
            req.span.finish(self.sim.now)
        elif record.kind == "rread":
            # Our own RDMA read completed: finish the receive and tell
            # the sender its buffer is free.
            send_id = record.meta
            req = state.pending_recvs.pop(send_id, None)
            if req is None:
                raise MpiError(f"read completion for unknown rendezvous {send_id}")
            ctx.bytes_received += record.size
            req.complete(source=record.src_rank, tag=record.tag, size=record.size)
            req.span.finish(self.sim.now)
            hca = self._ranks[ctx.rank][1]
            fin = NetRecord(
                kind="fin",
                src_rank=ctx.rank,
                dst_rank=record.src_rank,
                size=self.params.control_bytes,
                tag=record.tag,
                meta=send_id,
                span=req.span,
            )
            self._c_fin.inc()
            yield from hca.rdma_write(
                ctx.cpu, ctx.rank, self._peer_hca(record.src_rank), fin
            )
        elif record.kind == "fin":
            send_id = record.meta
            st = state.pending_sends.pop(send_id, None)
            if st is None:
                raise MpiError(f"FIN for unknown send {send_id}")
            st.request.span.edge(record.span.last_end, record.span, "host_poll")
            st.request.complete(
                source=ctx.rank, tag=st.request.tag, size=st.size
            )
            st.request.span.finish(self.sim.now)
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown record kind {record.kind!r}")

    # -- flow control ------------------------------------------------------------------

    def _acquire_credit(
        self, ctx: RankContext, dest: int
    ) -> Generator[Event, Any, None]:
        """Take one eager-ring slot toward ``dest``, stalling if empty.

        A stalled sender keeps servicing its own inbox (it is inside the
        library), so credit waits cannot deadlock against each other.
        """
        state: _MvState = ctx.impl_state
        while state.credits_to(dest) <= 0:
            state.credit_stalls += 1
            self._c_credit_stalls.inc()
            waiter = state.credit_waiters.get(dest)
            if waiter is None or waiter.processed:
                waiter = Event(self.sim)
                state.credit_waiters[dest] = waiter
            if self.progress_thread:
                yield waiter
                continue
            get_ev = state.inbox.get()
            if get_ev.triggered:
                yield from self._handle(ctx, get_ev.value)
            else:
                yield self.sim.any_of([waiter, get_ev])
                if get_ev.triggered:
                    yield from self._handle(ctx, get_ev.value)
                else:
                    state.inbox.cancel_get(get_ev)
        state.credits[dest] -= 1
        state.credits_outstanding += 1
        state.credit_chan.record(self.sim.now, state.credits_outstanding)

    def _return_credit(self, receiver_rank: int, sender_rank: int) -> None:
        """Free the ring slot ``sender_rank`` used at ``receiver_rank``.

        The credit word travels back RDMA-written (piggybacked in the real
        stack); its wire cost is negligible and modelled as zero, but its
        *timing* is exact: it returns only when the receiving host copies
        the message out of the ring.
        """
        sender_ctx, _ = self._ranks[sender_rank]
        state: _MvState = sender_ctx.impl_state
        state.credits[receiver_rank] = state.credits_to(receiver_rank) + 1
        state.credits_outstanding -= 1
        state.credit_chan.record(self.sim.now, state.credits_outstanding)
        waiter = state.credit_waiters.get(receiver_rank)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)

    # -- protocol helpers --------------------------------------------------------------

    def _charge_match(
        self, ctx: RankContext, searched: int
    ) -> Generator[Event, Any, None]:
        self._c_match.inc()
        self._c_match_searched.inc(searched)
        cost = (
            self.params.host_match_base
            + self.params.host_match_per_element * searched
        )
        yield from ctx.cpu.busy(cost, kind="mpi")

    def _deliver_eager(
        self, ctx: RankContext, record: NetRecord, req: Request
    ) -> Generator[Event, Any, None]:
        state: _MvState = ctx.impl_state
        span = req.span
        span.relabel("eager")
        # Host matching only: the HCA never matched anything on arrival.
        span.note("matched_on_arrival", 0)
        span.edge(record.span.last_end, record.span, "host_match")
        if record.size > req.size:
            span.note("error", "truncation")
            span.finish(self.sim.now)
            req.done.fail(
                TruncationError(
                    f"eager message of {record.size} B truncates receive of "
                    f"{req.size} B"
                )
            )
            return
        start = self.sim.now
        yield from ctx.node.host_copy(record.size)
        span.phase("eager_copy", start, self.sim.now)
        state.host_copies_bytes += record.size
        ctx.charge_pollution(record.size)
        ctx.bytes_received += record.size
        req.complete(source=record.src_rank, tag=record.tag, size=record.size)
        span.finish(self.sim.now)

    def _answer_rts(
        self, ctx: RankContext, rts: NetRecord, req: Request
    ) -> Generator[Event, Any, None]:
        state: _MvState = ctx.impl_state
        send_id, data_size = rts.meta
        span = req.span
        span.relabel("rndv")
        span.note("matched_on_arrival", 0)
        span.edge(rts.span.last_end, rts.span, "host_match")
        if data_size > req.size:
            span.note("error", "truncation")
            span.finish(self.sim.now)
            req.done.fail(
                TruncationError(
                    f"rendezvous of {data_size} B truncates receive of "
                    f"{req.size} B"
                )
            )
            return
        hca = self._ranks[ctx.rank][1]
        key = req.impl_state if req.impl_state is not None else (
            "recv",
            ctx.rank,
            rts.src_rank,
        )
        yield from hca.reg_cache(ctx.rank).ensure(ctx.cpu, key, data_size, span)
        state.pending_recvs[send_id] = req
        if self.params.rndv_protocol == "read":
            # RTS carried the source address: pull the data directly.
            # The sender's host is not involved again until the FIN.
            data = NetRecord(
                kind="rread",
                src_rank=rts.src_rank,
                dst_rank=ctx.rank,
                size=data_size,
                tag=rts.tag,
                meta=send_id,
                span=span,
            )
            yield from hca.rdma_read(
                ctx.cpu, ctx.rank, self._peer_hca(rts.src_rank), data
            )
            return
        cts = NetRecord(
            kind="cts",
            src_rank=ctx.rank,
            dst_rank=rts.src_rank,
            size=self.params.control_bytes,
            tag=rts.tag,
            meta=send_id,
            span=span,
        )
        self._c_cts.inc()
        yield from hca.rdma_write(
            ctx.cpu, ctx.rank, self._peer_hca(rts.src_rank), cts
        )

    def _start_data(
        self, ctx: RankContext, cts: NetRecord
    ) -> Generator[Event, Any, None]:
        state: _MvState = ctx.impl_state
        send_id = cts.meta
        st = state.pending_sends.pop(send_id, None)
        if st is None:
            raise MpiError(f"CTS for unknown send {send_id}")
        hca = self._ranks[ctx.rank][1]
        st.request.span.edge(cts.span.last_end, cts.span, "host_poll")
        data = NetRecord(
            kind="rdata",
            src_rank=ctx.rank,
            dst_rank=st.dest,
            size=st.size,
            tag=st.request.tag,
            meta=send_id,
            span=st.request.span,
        )
        done = yield from hca.rdma_write(
            ctx.cpu, ctx.rank, self._peer_hca(st.dest), data
        )
        # Local completion frees the send buffer; model the CQE as
        # observed at data completion (the sender is necessarily inside
        # the library whenever it can notice).
        self.sim.spawn(
            _complete_on(self.sim, done, st.request, ctx.rank, st.request.tag, st.size),
            name=f"ib.sdone{ctx.rank}",
        )

    # -- end-of-run invariants -----------------------------------------------------------

    def check_invariants(self) -> list:
        """Conservation checks on a quiesced run (plain dicts; see
        :func:`repro.analysis.invariants.check_invariants`).

        Eager-ring credits are the conserved quantity: every slot taken
        must have been returned, so each sender's per-destination count
        is back at ``ring_slots`` and no slots are outstanding.
        """
        problems = []
        for rank in sorted(self._ranks):
            ctx, _ = self._ranks[rank]
            state: _MvState = ctx.impl_state
            for dest in sorted(state.credits):
                if state.credits[dest] != state.ring_slots:
                    problems.append(
                        {
                            "name": "credits_balanced",
                            "message": (
                                f"rank {rank} holds {state.credits[dest]} "
                                f"credit(s) toward rank {dest}, expected "
                                f"{state.ring_slots}"
                            ),
                            "details": {
                                "rank": rank,
                                "dest": dest,
                                "credits": state.credits[dest],
                                "ring_slots": state.ring_slots,
                            },
                        }
                    )
            if state.credits_outstanding != 0:
                problems.append(
                    {
                        "name": "credits_outstanding",
                        "message": (
                            f"rank {rank} still counts "
                            f"{state.credits_outstanding} eager slot(s) "
                            "outstanding at end of run"
                        ),
                        "details": {
                            "rank": rank,
                            "outstanding": state.credits_outstanding,
                        },
                    }
                )
            for label, pending in (
                ("pending_sends", state.pending_sends),
                ("pending_recvs", state.pending_recvs),
            ):
                if pending:
                    problems.append(
                        {
                            "name": f"{label}_drained",
                            "message": (
                                f"rank {rank} has {len(pending)} "
                                f"{label.replace('_', ' ')} unresolved "
                                "at end of run"
                            ),
                            "details": {
                                "rank": rank,
                                "ids": sorted(pending),
                            },
                        }
                    )
            for label, queue in (
                ("posted", state.posted),
                ("unexpected", state.unexpected),
            ):
                if len(queue):
                    problems.append(
                        {
                            "name": f"{label}_drained",
                            "message": (
                                f"rank {rank} still has {len(queue)} "
                                f"{label} entr(ies) queued at end of run"
                            ),
                            "details": {"rank": rank, "depth": len(queue)},
                        }
                    )
        return problems

    # -- reporting ----------------------------------------------------------------------

    def finalize_stats(self, ctx: RankContext) -> dict:
        state: _MvState = ctx.impl_state
        hca = self._ranks[ctx.rank][1]
        cache = hca.reg_cache(ctx.rank)
        return {
            "eager_sends": state.eager_sends,
            "rndv_sends": state.rndv_sends,
            "host_copied_bytes": state.host_copies_bytes,
            "reg_hits": cache.hits,
            "reg_misses": cache.misses,
            "reg_evictions": cache.evictions,
            "posted_max_depth": state.posted.max_depth,
            "unexpected_max_depth": state.unexpected.max_depth,
            "credit_stalls": state.credit_stalls,
        }


def _complete_on(
    sim: "Simulator",
    done: Event,
    request: Request,
    source: int,
    tag: int,
    size: int,
) -> Generator[Event, Any, None]:
    yield done
    request.complete(source=source, tag=tag, size=size)
    request.span.finish(sim.now)
