#!/usr/bin/env python
"""Campaign engine demo: a cached, parallel, resumable parameter sweep.

Declares one campaign — a ping-pong message-size grid plus a LAMMPS LJS
scaling study — and runs it twice through the campaign engine.  The
first pass simulates every point on a worker pool; the second is served
entirely from the content-addressed cache and reports a 100% hit rate.

Run:  python examples/campaign_sweep.py [--quick] [--workers N]
"""

import argparse
import tempfile

from repro.campaign import CampaignEngine, CampaignSpec
from repro.core import ScalingStudy
from repro.mpi import NETWORK_LABELS


def pingpong_campaign(quick: bool) -> CampaignSpec:
    sizes = [0, 1024, 65536] if quick else [0, 1024, 65536, 1048576]
    return CampaignSpec(
        name="pingpong-sizes",
        base={"app": "pingpong", "nodes": 2},
        grid={"network": ["ib", "elan"], "app_args.size": sizes},
        repetitions=1,
    )


def ljs_study(quick: bool) -> ScalingStudy:
    return ScalingStudy(
        app="lammps",
        app_args={"config": "ljs", "steps": 2 if quick else 10,
                  "thermo_every": 1},
        node_counts=[1, 2, 4] if quick else [1, 2, 4, 8],
        ppns=(1,),
        repetitions=2,
        mode="scaled",
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="tiny sweep")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as root:
        engine = CampaignEngine(root=root, workers=args.workers)

        campaign = pingpong_campaign(args.quick)
        print(f"cold pass ({args.workers} workers):")
        result = engine.run(campaign)
        print(f"  {result.summary()}")
        for record, value in zip(result.records, result.values()):
            spec = record["spec"]
            label = NETWORK_LABELS[spec["network"]]
            size = spec["app_args"]["size"]
            print(f"  {label:<18} {size:>8} B  latency {value:8.2f} us")

        print("\nwarm pass (same campaign, fresh engine):")
        result = CampaignEngine(root=root, workers=args.workers).run(campaign)
        print(f"  {result.summary()}")

        print("\nLAMMPS LJS study through the same cache:")
        study_result = ljs_study(args.quick).run(engine=engine)
        for (network, ppn), points in study_result.curves.items():
            times = ", ".join(f"{p.mean_time / 1e3:.1f}" for p in points)
            print(f"  {NETWORK_LABELS[network]} {ppn} PPN: {times} ms")


if __name__ == "__main__":
    main()
