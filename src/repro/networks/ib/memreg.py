"""Explicit memory registration with an LRU pin-down cache.

InfiniBand requires every buffer involved in RDMA to be registered
(pinned and translated) before use.  MVAPICH mitigates the syscall cost
with a *pin-down cache*: registrations are left in place and reused when
the same buffer reappears.  The cache has finite capacity; working sets
bigger than it *thrash* — each message pays a deregistration plus a fresh
registration.  The paper observes exactly this as a dramatic bandwidth
drop at 4 MB messages (two 4 MB ping-pong buffers exceed the cache),
"reportedly fixed in subsequent versions of MVAPICH".

Quadrics needs none of this: the Elan MMU translates addresses on the
NIC, cooperating with the OS — see :mod:`repro.networks.elan`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Generator, Hashable, Tuple

from ...errors import RegistrationError
from ...hardware.node import Cpu
from ...sim import Event
from ...telemetry.lifecycle import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover
    from ...sim import Simulator
    from ..params import IBParams


class RegistrationCache:
    """Per-process LRU cache of registered memory regions."""

    def __init__(
        self, sim: "Simulator", params: "IBParams", name: str = ""
    ) -> None:
        self.sim = sim
        self.params = params
        #: Owner label (the rank), used to name the fault-injection stream.
        self.name = name
        self._regions: "OrderedDict[Hashable, int]" = OrderedDict()
        self._bytes = 0
        # -- statistics ----------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.registered_pages_total = 0
        self.transient_failures = 0
        # Shared across all caches of the run: the paper's thrash signature
        # is an aggregate property, and per-rank splits stay available on
        # the per-cache attributes above.
        self._c_hits = sim.metrics.counter("mvapich.reg_cache.hits")
        self._c_misses = sim.metrics.counter("mvapich.reg_cache.misses")
        self._c_evictions = sim.metrics.counter("mvapich.reg_cache.evictions")
        #: Pinned-bytes channel for the series sampler (null when off).
        self._ch_bytes = sim.telemetry.series.channel(
            f"mvapich.reg_cache.{name or 'anon'}.bytes"
        )

    # -- cost helpers -----------------------------------------------------------

    def _pages(self, size: int) -> int:
        return max(1, -(-size // self.params.page_bytes))  # ceil, min 1 page

    def register_cost(self, size: int) -> float:
        """Host time to pin and register ``size`` bytes."""
        return self.params.reg_base + self.params.reg_per_page * self._pages(size)

    def deregister_cost(self, size: int) -> float:
        """Host time to unpin and deregister ``size`` bytes."""
        return self.params.dereg_base + self.params.dereg_per_page * self._pages(size)

    def _injected_failures(
        self, cpu: Cpu, span=NULL_SPAN
    ) -> Generator[Event, Any, None]:
        """Charge injected transient registration failures, if any.

        Each failed ``ibv_reg_mr``-equivalent burns the base syscall cost
        before erroring out; the caller then retries.  When every attempt
        in the plan's budget fails, the region cannot be pinned and the
        model raises :class:`~repro.errors.RegistrationError` — the
        host-driven stack has no hardware below it to hide the fault,
        unlike the Elan MMU path.
        """
        faults = self.sim.faults
        if faults is None:
            return
        failures = faults.reg_failures(self.name)
        if failures == 0:
            return
        self.transient_failures += failures
        span.bump("reg_transient_failures", failures)
        self.sim.trace.log(
            self.sim.now,
            "fault.reg",
            "cache {}: {} transient registration failure(s)",
            self.name, failures,
        )
        yield from cpu.busy(failures * self.params.reg_base, kind="mpi")
        if failures >= faults.plan.reg_retry_budget:
            raise RegistrationError(
                f"memory registration failed {failures} consecutive times "
                f"(budget {faults.plan.reg_retry_budget}) in cache "
                f"{self.name or 'anonymous'}"
            )

    # -- main entry point ----------------------------------------------------------

    def ensure(
        self, cpu: Cpu, key: Hashable, size: int, span=NULL_SPAN
    ) -> Generator[Event, Any, None]:
        """Make the region ``(key, size)`` registered, charging host time.

        A hit costs one hash lookup; a miss pays LRU evictions (deregister)
        until the region fits, then the registration itself.  All costs run
        on the calling rank's CPU, attributed to MPI overhead — this is
        work a Quadrics host never does.

        A live lifecycle ``span`` records the host time as a
        ``registration`` phase on a miss and a ``reg_lookup`` phase on a
        hit, so blame analysis separates pin-down thrash from cheap
        cache lookups.
        """
        if size < 0:
            raise RegistrationError(f"negative region size: {size}")
        size = max(size, 1)
        start = self.sim.now
        if size > self.params.reg_cache_bytes:
            # Region can never be cached: register and deregister every time.
            yield from self._injected_failures(cpu, span)
            self.misses += 1
            self._c_misses.inc()
            self.registered_pages_total += self._pages(size)
            yield from cpu.busy(
                self.register_cost(size) + self.deregister_cost(size), kind="mpi"
            )
            span.phase("registration", start, self.sim.now)
            return
        cached = self._regions.get(key)
        if cached is not None and cached >= size:
            self._regions.move_to_end(key)
            self.hits += 1
            self._c_hits.inc()
            yield from cpu.busy(self.params.reg_cache_hit, kind="mpi")
            span.phase("reg_lookup", start, self.sim.now)
            return
        # Miss (absent, or cached smaller than needed -> re-register).
        yield from self._injected_failures(cpu, span)
        self.misses += 1
        self._c_misses.inc()
        cost = 0.0
        if cached is not None:
            self._bytes -= cached
            del self._regions[key]
            cost += self.deregister_cost(cached)
        while self._bytes + size > self.params.reg_cache_bytes:
            old_key, old_size = self._regions.popitem(last=False)
            self._bytes -= old_size
            self.evictions += 1
            self._c_evictions.inc()
            cost += self.deregister_cost(old_size)
        cost += self.register_cost(size)
        self.registered_pages_total += self._pages(size)
        self._regions[key] = size
        self._bytes += size
        self._ch_bytes.record(self.sim.now, self._bytes)
        yield from cpu.busy(cost, kind="mpi")
        span.phase("registration", start, self.sim.now)

    # -- introspection ------------------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        """Bytes currently held registered by the cache."""
        return self._bytes

    @property
    def cached_regions(self) -> int:
        """Number of distinct regions currently registered."""
        return len(self._regions)

    def stats(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` so far."""
        return (self.hits, self.misses, self.evictions)
