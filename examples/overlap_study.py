#!/usr/bin/env python
"""Overlap and independent progress, isolated (paper Sections 3.3.3/3.3.5).

Sweeps the compute time placed between posting non-blocking halo
exchanges and waiting on them.  With independent progress (Elan-4/Tports)
the transfer proceeds during the compute, so total time approaches
max(compute, transfer); without it (InfiniBand/MVAPICH) rendezvous stalls
until the wait, so total approaches compute + transfer.  This is the
mechanism behind the LAMMPS membrane results (Figure 3).

Run:  python examples/overlap_study.py
"""

from repro import Machine
from repro.mpi import NETWORK_LABELS
from repro.units import MiB, us_from_ms


def make_overlap_prog(size, compute_us):
    def prog(mpi):
        peer = 1 - mpi.rank
        t0 = mpi.now
        rreq = yield from mpi.irecv(source=peer, tag=1, size=size)
        sreq = yield from mpi.isend(dest=peer, size=size, tag=1)
        yield from mpi.compute(compute_us)
        yield from mpi.waitall([sreq, rreq])
        return mpi.now - t0

    return prog


def transfer_time(network, size):
    """Baseline: the exchange with no compute to hide it behind."""
    machine = Machine(network, n_nodes=2)
    return max(machine.run(make_overlap_prog(size, 0.0)).values)


def main():
    size = 1 * MiB
    base = {net: transfer_time(net, size) for net in ("ib", "elan")}
    print(f"1 MiB bidirectional exchange, no compute:")
    for net, t in base.items():
        print(f"  {NETWORK_LABELS[net]:<18} {t / 1e3:7.2f} ms")

    print(
        f"\n{'compute (ms)':>12} | "
        + " | ".join(
            f"{NETWORK_LABELS[n]} total/overlap%".ljust(34) for n in ("ib", "elan")
        )
    )
    for compute_ms in (0.5, 1.0, 2.0, 4.0, 8.0):
        compute_us = us_from_ms(compute_ms)
        cells = []
        for net in ("ib", "elan"):
            machine = Machine(net, n_nodes=2)
            total = max(machine.run(make_overlap_prog(size, compute_us)).values)
            # Overlap achieved: how much of the baseline transfer was
            # hidden behind the compute region.
            hidden = max(0.0, base[net] - (total - compute_us))
            pct = 100.0 * hidden / base[net]
            cells.append(f"{total / 1e3:7.2f} ms  ({pct:5.1f}% hidden)".ljust(34))
        print(f"{compute_ms:>12.1f} | " + " | ".join(cells))

    print(
        "\nElan-4 hides nearly the whole transfer once compute exceeds it;\n"
        "MVAPICH hides almost nothing, because the rendezvous handshake\n"
        "only advances inside MPI library calls."
    )


if __name__ == "__main__":
    main()
