"""Ping-pong latency/bandwidth (Pallas MPI Benchmarks PingPong style).

Two processes bounce a single message; latency is half the round trip,
averaged over many exchanges (the paper: "several hundred exchanges are
performed and the average time is reported").  Repetition counts shrink
with message size exactly as the Pallas suite does, bounding simulation
cost without changing the statistics of a deterministic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence

from ..errors import ConfigurationError
from ..mpi import Machine, MpiRank
from ..units import KiB, MiB, pow2_sizes


def default_repetitions(size: int) -> int:
    """Pallas-style schedule: many reps for small, few for huge messages."""
    if size <= 4 * KiB:
        return 60
    if size <= 64 * KiB:
        return 30
    if size <= 1 * MiB:
        return 10
    return 4


#: Warm-up exchanges excluded from timing (first-touch protocol costs:
#: lazy QP activation, first registration, cold matching queues).
WARMUP_EXCHANGES = 2


@dataclass
class PingPongPoint:
    """One message-size measurement."""

    size: int
    latency_us: float

    @property
    def bandwidth(self) -> float:
        """One-way bandwidth in MB/s (0 for zero-size messages)."""
        return self.size / self.latency_us if self.size > 0 else 0.0


@dataclass
class PingPongSeries:
    """A full message-size sweep on one network."""

    network: str
    points: List[PingPongPoint]

    def latency(self, size: int) -> float:
        """Latency at an exact size (raises KeyError if absent)."""
        for p in self.points:
            if p.size == size:
                return p.latency_us
        raise KeyError(f"size {size} not measured")

    def bandwidth(self, size: int) -> float:
        """Bandwidth at an exact size."""
        for p in self.points:
            if p.size == size:
                return p.bandwidth
        raise KeyError(f"size {size} not measured")

    @property
    def sizes(self) -> List[int]:
        return [p.size for p in self.points]


def pingpong_program(
    size: int, repetitions: int, warmup: int = WARMUP_EXCHANGES
):
    """Program factory: rank 0 measures, rank 1 echoes."""
    if size < 0:
        raise ConfigurationError(f"negative message size: {size}")
    if repetitions < 1:
        raise ConfigurationError("need at least one repetition")
    if warmup < 0:
        raise ConfigurationError(f"negative warmup count: {warmup}")

    def program(mpi: MpiRank) -> Generator[Any, Any, Optional[float]]:
        if mpi.size < 2:
            raise ConfigurationError("ping-pong needs two ranks")
        if mpi.rank > 1:
            return None  # idle ranks (the benchmark uses exactly two)
        peer = 1 - mpi.rank
        sbuf, rbuf = ("pp-send", mpi.rank), ("pp-recv", mpi.rank)
        for _ in range(warmup):
            yield from _exchange(mpi, peer, size, sbuf, rbuf)
        t0 = mpi.now
        for _ in range(repetitions):
            yield from _exchange(mpi, peer, size, sbuf, rbuf)
        if mpi.rank == 0:
            return (mpi.now - t0) / (2.0 * repetitions)
        return None

    return program


def _exchange(mpi: MpiRank, peer: int, size: int, sbuf, rbuf):
    if mpi.rank == 0:
        yield from mpi.send(dest=peer, size=size, buf=sbuf)
        yield from mpi.recv(source=peer, size=size, buf=rbuf)
    else:
        yield from mpi.recv(source=peer, size=size, buf=rbuf)
        yield from mpi.send(dest=peer, size=size, buf=sbuf)


def run_pingpong(
    network: str,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
    repetitions=None,
) -> PingPongSeries:
    """Measure a ping-pong sweep on a fresh two-node machine per size.

    ``repetitions`` may be an int or a ``size -> int`` callable; default is
    the Pallas schedule.
    """
    if sizes is None:
        sizes = pow2_sizes(4 * MiB)
    reps_of = (
        repetitions
        if callable(repetitions)
        else (lambda s: repetitions)
        if repetitions is not None
        else default_repetitions
    )
    points = []
    for size in sizes:
        machine = Machine(network, n_nodes=2, ppn=1, seed=seed)
        result = machine.run(pingpong_program(size, reps_of(size)))
        points.append(PingPongPoint(size=size, latency_us=result.values[0]))
    return PingPongSeries(network=network, points=points)
