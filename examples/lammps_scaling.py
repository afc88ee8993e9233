#!/usr/bin/env python
"""LAMMPS membrane scaled-size study — the paper's Figure 3, end to end.

Runs the membrane skeleton across node counts at 1 and 2 processes per
node on both networks, prints execution time and scaling efficiency, and
extrapolates the trend to 1024 nodes (Figure 8's question: can Quadrics
stay competitive at scale?).

Run:  python examples/lammps_scaling.py          (~2-3 minutes)
      python examples/lammps_scaling.py --quick  (seconds)
"""

import sys

from repro import ScalingStudy
from repro.core import fit_trend, render_series_table
from repro.mpi import NETWORK_LABELS


def main():
    quick = "--quick" in sys.argv
    node_counts = [1, 2, 4] if quick else [1, 2, 4, 8, 16, 32]
    study = ScalingStudy(
        app="lammps",
        app_args={"config": "membrane"},
        node_counts=node_counts,
        ppns=(1, 2),
        repetitions=2 if quick else 4,
        mode="scaled",
    )
    result = study.run(progress=lambda msg: print(f"  ran {msg}"))

    print()
    times = result.time_series(unit=1e3)
    for s in times:
        s.y_name = "time (ms)"
    print(render_series_table(times, title="Execution time (ms), scaled problem",
                              y_format="{:.1f}"))
    print()
    print(
        render_series_table(
            result.efficiency_series(),
            title="Scaling efficiency (%)",
            y_format="{:.1f}",
        )
    )

    print("\nTrend extrapolation (1 PPN curves, per-doubling slope):")
    for net in ("ib", "elan"):
        eff = result.efficiency(net, 1)
        fit = fit_trend(eff)
        print(
            f"  {NETWORK_LABELS[net]:<18} "
            f"{fit.slope_per_doubling * 100:+.2f} pts/doubling -> "
            f"{fit.efficiency_at(1024) * 100:5.1f}% at 1024 nodes"
        )


if __name__ == "__main__":
    main()
