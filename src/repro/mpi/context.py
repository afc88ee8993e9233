"""Per-rank execution context and the implementation interface.

:class:`RankContext` binds one MPI process to its CPU, node and NIC, and
carries the cache-pollution accumulator that converts host-side MPI work
into application compute slowdown (Section 3.3.4's offload argument).

:class:`MpiImpl` is the interface both implementations provide.  All
methods that advance simulated time are generators driven from the rank's
own process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List

from ..errors import MpiError
from ..hardware import Node, XEON_POLLUTION
from ..hardware.node import Cpu
from ..sim import Event
from .request import Request

if TYPE_CHECKING:  # pragma: no cover
    from ..networks.base import Nic
    from ..sim import Simulator


class RankContext:
    """Everything one MPI process needs to touch the machine."""

    def __init__(
        self,
        sim: "Simulator",
        rank: int,
        size: int,
        node: Node,
        cpu: Cpu,
        nic: "Nic",
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.size = size
        self.node = node
        self.cpu = cpu
        self.nic = nic
        self.pollution = XEON_POLLUTION
        #: Bytes handled by host-side MPI code since the last compute
        #: region — drives the cache-pollution compute slowdown.  Only the
        #: MVAPICH path ever charges it.
        self.polluted_bytes = 0.0
        #: Implementation-private state (queues, protocol tables).
        self.impl_state: Any = None
        #: Co-resident contexts on the same node (set by the machine
        #: builder); pollution propagates to them.
        self.neighbors: List["RankContext"] = []
        # -- accounting ----------------------------------------------------
        self.sends = 0
        self.recvs = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def charge_pollution(self, nbytes: float) -> None:
        """Record host-side MPI data movement that dirties the cache.

        A fraction lands on co-resident ranks too: the dual-Xeon node
        shares its front-side bus and the copies evict lines node-wide.
        """
        if nbytes <= 0:
            return
        self.polluted_bytes += nbytes
        cross = nbytes * self.pollution.cross_rank_fraction
        for other in self.neighbors:
            other.polluted_bytes += cross

    def compute_slowdown(self) -> float:
        """Multiplier (>= 1) for the next compute region; drains pollution."""
        factor = 1.0 + self.pollution.slowdown(self.polluted_bytes)
        self.polluted_bytes = 0.0
        return factor


class MpiImpl:
    """Interface of one MPI implementation (MVAPICH or Quadrics MPI)."""

    #: Human-readable name for reports.
    name = "abstract"
    #: Whether outstanding operations progress without library calls.
    independent_progress = False
    #: Whether matching/protocol work is offloaded to the NIC.
    offload = False

    def init(self, ctx: RankContext) -> Generator[Event, Any, None]:
        """Per-rank MPI_Init work (connections, capabilities)."""
        raise NotImplementedError

    def isend(
        self, ctx: RankContext, dest: int, size: int, tag: int, buf: Any
    ) -> Generator[Event, Any, Request]:
        """Start a non-blocking send; returns quickly with a request."""
        raise NotImplementedError

    def irecv(
        self, ctx: RankContext, source: int, tag: int, size: int, buf: Any
    ) -> Generator[Event, Any, Request]:
        """Start a non-blocking receive; returns quickly with a request."""
        raise NotImplementedError

    def wait(
        self, ctx: RankContext, request: Request
    ) -> Generator[Event, Any, None]:
        """Block until ``request`` completes, making progress as needed."""
        raise NotImplementedError

    def waitall(
        self, ctx: RankContext, requests: List[Request]
    ) -> Generator[Event, Any, None]:
        """Block until every request completes (default: wait in turn)."""
        for req in requests:
            yield from self.wait(ctx, req)

    def test(
        self, ctx: RankContext, request: Request
    ) -> Generator[Event, Any, bool]:
        """One progress poke; returns completion state without blocking."""
        raise NotImplementedError

    def compute(
        self, ctx: RankContext, duration: float
    ) -> Generator[Event, Any, None]:
        """Application compute: occupies the CPU, makes NO MPI progress.

        Two interference mechanisms apply, both zero by construction on
        the offloaded (Quadrics) path:

        * cache pollution accumulated from host-side MPI work slows the
          whole region (drained once at its start);
        * while a co-resident rank spin-polls its MPI library, each
          compute slice pays :attr:`PollutionSpec.spin_pressure` — the
          region is sliced so the penalty tracks the neighbour's actual
          spinning windows.
        """
        if duration < 0:
            raise MpiError(f"negative compute time: {duration}")
        if duration == 0.0:
            return
        remaining = duration * ctx.compute_slowdown()
        slice_us = ctx.pollution.spin_slice_us
        while remaining > 0.0:
            chunk = min(remaining, slice_us)
            remaining -= chunk
            if ctx.node.spinning > 0:
                chunk *= 1.0 + ctx.pollution.spin_pressure
            yield from ctx.cpu.busy(chunk, kind="compute")

    def finalize_stats(self, ctx: RankContext) -> dict:
        """Per-rank implementation statistics for reports."""
        return {}
