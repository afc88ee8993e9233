"""Failure injection: hangs, crashes and overload are *detected*.

A simulator that silently absorbs broken protocols hides bugs; these
tests verify the kernel's fail-fast machinery catches the classic
failure modes when programs misbehave.
"""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.mpi import Machine


def test_rank_that_stops_calling_mpi_deadlocks_peers():
    """A hung rank (never posts its receive) leaves peers blocked."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(dest=1, size=1 << 20)  # rendezvous: needs 1
            return None
        # Rank 1 never receives.
        yield from mpi.compute(1.0)
        return None

    m = Machine("ib", 2)
    with pytest.raises(DeadlockError):
        m.run(prog)


def test_mismatched_collective_order_detected():
    """Mismatched collectives either deadlock (different tags) or
    truncate (same tag, different sizes) — both must be *loud*."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.allreduce(64)
        else:
            yield from mpi.barrier()

    m = Machine("elan", 2)
    with pytest.raises((DeadlockError, SimulationError)):
        m.run(prog)


def test_crashing_rank_aborts_with_cause():
    def prog(mpi):
        yield from mpi.compute(10.0)
        if mpi.rank == 1:
            raise RuntimeError("application fault on rank 1")
        yield from mpi.barrier()

    m = Machine("elan", 2)
    with pytest.raises(SimulationError) as ei:
        m.run(prog)
    assert isinstance(ei.value.__cause__, RuntimeError)


def test_send_to_self_via_wrong_rank_detected():
    def prog(mpi):
        yield from mpi.send(dest=mpi.rank, size=10)  # self-send unsupported
        # (self-sends must be posted with a matching self-receive first;
        # a bare blocking self-send is a classic user deadlock)

    m = Machine("ib", 2)
    with pytest.raises((DeadlockError, SimulationError)):
        m.run(prog)
