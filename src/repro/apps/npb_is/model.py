"""NAS Parallel Benchmark IS communication skeleton (integer sort).

An *extension* beyond the paper's set: IS bucket-sorts integer keys each
iteration — an **alltoallv** whose per-pair volumes depend on the key
distribution, preceded by a small allreduce of bucket counts.  IS is the
most communication-dominated NPB kernel (almost no compute), stressing
the variable-size exchange path none of the other skeletons touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, List

from ...errors import ConfigurationError
from ...mpi import MpiRank

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class IsConfig:
    """One NPB IS class."""

    name: str
    #: Total keys (class A: 2^23).
    total_keys: int
    #: Ranking iterations (NPB runs 10).
    niter: int
    bytes_per_key: int = 4
    #: Host time to count/rank one key (us) — IS is nearly all memory ops
    #: (~2 ns/key on the model Xeon).
    rank_us_per_key: float = 0.002
    #: Skew of the synthetic key distribution: 0 = perfectly uniform;
    #: larger values concentrate keys in few buckets (hot receivers).
    skew: float = 0.3
    jitter_cv: float = 0.004

    def __post_init__(self) -> None:
        if self.total_keys < 1 or self.niter < 1:
            raise ConfigurationError("bad IS configuration")
        if self.skew < 0:
            raise ConfigurationError("skew must be non-negative")


#: Class A: 8M keys, 10 iterations (we default to fewer; rate metric).
IS_CLASS_A = IsConfig(name="A", total_keys=1 << 23, niter=3)

#: Small input for tests.
IS_CLASS_S = IsConfig(name="S", total_keys=1 << 16, niter=2)


def _bucket_volumes(
    config: IsConfig, nprocs: int, rng: np.random.Generator
) -> List[List[int]]:
    """Per-(sender, receiver) key counts for one iteration.

    A Dirichlet draw over receivers gives every sender the same target
    distribution (keys are partitioned by value range), skewed away from
    uniform by ``config.skew``.
    """
    import numpy as np

    keys_per_proc = config.total_keys // nprocs
    if config.skew == 0.0:
        share = np.full(nprocs, 1.0 / nprocs)
    else:
        alpha = np.full(nprocs, 1.0 / max(config.skew, 1e-6))
        share = rng.dirichlet(alpha)
    volumes = []
    for _sender in range(nprocs):
        counts = np.floor(share * keys_per_proc).astype(int)
        counts[0] += keys_per_proc - int(counts.sum())  # exact total
        volumes.append([int(c) for c in counts])
    return volumes


def is_program(config: IsConfig):
    """Program factory; each rank returns its ranking-loop wall time."""

    def program(mpi: MpiRank) -> Generator[Any, Any, float]:
        import numpy as np

        p = mpi.size
        keys_per_proc = config.total_keys // p
        rank_time = keys_per_proc * config.rank_us_per_key
        jstream = f"is.r{mpi.rank}"
        rng_local = mpi.ctx.sim.rng
        # Every rank derives the *same* volumes: a fresh generator seeded
        # from the machine's master seed (a shared mutable stream would
        # advance differently per rank and desynchronize the counts).
        volumes = _bucket_volumes(
            config,
            p,
            np.random.default_rng(  # repro-lint: disable=RPR001
                mpi.ctx.sim.rng.master_seed + 0x15
            ),
        )

        yield from mpi.barrier()
        t0 = mpi.now
        for _ in range(config.niter):
            # Local bucket counting.
            yield from mpi.compute(
                rng_local.jitter(jstream, rank_time, config.jitter_cv)
            )
            # Bucket-size agreement.
            yield from mpi.allreduce(p * 8)
            # The key redistribution: variable-size all-to-all.
            if p > 1:
                send_sizes = [
                    volumes[mpi.rank][r] * config.bytes_per_key for r in range(p)
                ]
                recv_sizes = [
                    volumes[r][mpi.rank] * config.bytes_per_key for r in range(p)
                ]
                send_sizes[mpi.rank] = 0
                recv_sizes[mpi.rank] = 0
                yield from mpi.alltoallv(send_sizes, recv_sizes)
            # Local ranking of received keys.
            yield from mpi.compute(
                rng_local.jitter(jstream, rank_time * 0.5, config.jitter_cv)
            )
        yield from mpi.barrier()
        return mpi.now - t0

    return program
