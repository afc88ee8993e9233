"""The repo benchmark: three workloads, timed end to end, split by layer.

    python3 perfbench/run.py --workload fig1-micro --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrument
installed; ``--trace 1`` runs one untraced pass, then a traced pass that
reports the per-layer metrics and its own overhead.  The last line of
standard output is the JSON result; the line before it is a detailed
report with the run context.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, SRC, WORK  # noqa: E402

WORKLOADS = ("fig1-micro", "scale-64", "serve-mixed")

#: End-to-end metrics: every workload reports every one of them.
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hit_p50_us": "us",
    "hit_p99_us": "us",
    "hit_qps": "1/s",
    "miss_p50_ms": "ms",
    "miss_p90_ms": "ms",
}

#: Per-layer metrics of the traced pass, by layer.
LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_msg": "count",
    "sim.spawns_per_msg": "count",
    "sim.heap_pushes": "count",
    "sim.resumptions": "count",
    "sim.host_us_per_event": "us",
    "sim.kernel.self_share": "ratio",
    "sim.pipelines.self_share": "ratio",
    "sim.resources.self_share": "ratio",
    "topology.wire_stages.calls": "count",
    "topology.stages_per_msg": "count",
    "topology.self_share": "ratio",
    "networks.ib.self_share": "ratio",
    "networks.elan.self_share": "ratio",
    "networks.ib.reg_hit_ratio": "ratio",
    "mpi.messages": "count",
    "mpi.bytes": "B",
    "mpi.mvapich.self_share": "ratio",
    "mpi.qmpi.self_share": "ratio",
    "mpi.matching.self_share": "ratio",
    "mpi.collectives.self_share": "ratio",
    "mpi.machine_build_s": "s",
    "mpi.init_barrier_s": "s",
    "apps.self_share": "ratio",
    "telemetry.snapshot_ms": "ms",
    "telemetry.self_share": "ratio",
    "campaign.key_us": "us",
    "campaign.submit_p50_us": "us",
    "campaign.submit_p99_us": "us",
    "campaign.memory_hit_ratio": "ratio",
    "campaign.cache_put_ms": "ms",
    "campaign.journal_append_ms": "ms",
    "campaign.jobstore_append_ms": "ms",
    "campaign.queue_delay_ms": "ms",
    "campaign.execute_run_ms": "ms",
    "serve.handler_us": "us",
    "serve.self_share": "ratio",
    "serve.json_share": "ratio",
    "serve.threads_peak": "count",
    "serve.hit_p99_busy_us": "us",
    "serve.hit_p99_idle_us": "us",
    "trace.overhead_ratio": "ratio",
}

#: Counts that must repeat exactly for a workload and seed.
STABLE_COUNTS = (
    "sim.events", "mpi.messages", "topology.wire_stages.calls",
    "sim.spawns_per_msg",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record this seed's output digest in perfbench/expected.json "
        "instead of checking against it",
    )
    return parser.parse_args(argv)


def check_digest(workload, seed, digests, expected, outcome, write):
    """All digests of the run agree, and match the committed one."""
    outcome.check(len(set(digests)) == 1, "passes produced different outputs")
    committed = expected.get("digests", {}).get(workload, {}).get(str(seed))
    if write:
        expected.setdefault("digests", {}).setdefault(workload, {})[
            str(seed)] = digests[0]
    elif committed is not None:
        outcome.check(digests[0] == committed,
                      f"outputs differ from the committed digest {committed}")
    return committed is not None


def check_counts(workload, seed, layer, outcome):
    """Traced counts repeat exactly between runs of one checkout.

    They are not committed: a kernel rewrite may change them while the
    simulated outputs, which are committed, stay the same.
    """
    counts = {k: layer[k] for k in STABLE_COUNTS}
    seen_path = WORK / "counts.json"
    try:
        seen = json.loads(seen_path.read_text())
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}:{seed}"
    if key in seen:
        outcome.check(seen[key] == counts,
                      f"counts {counts} differ from an earlier run {seen[key]}")
    elif outcome.correct:  # a failed run may have stopped short
        seen[key] = counts
        seen_path.write_text(json.dumps(seen, sort_keys=True))


def check_shares(layer, outcome):
    total = sum(v for k, v in layer.items() if k.endswith(".self_share"))
    outcome.check(total <= 1.0 + 1e-9, f"self shares sum to {total}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; the serve daemons this run starts stop on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    import os

    import harness
    import workloads

    context = harness.run_context()
    outcome = harness.Outcome()
    expected = harness.load_expected()
    harness.pin_to_one_cpu()
    with harness.HostSpeed() as speed:
        if args.trace:
            metrics, report = workloads.traced(args, outcome, speed)
            units = LAYER_UNITS
            check_shares(metrics, outcome)
            check_counts(args.workload, args.seed, metrics, outcome)
        else:
            metrics, report = workloads.timed(args, outcome, speed)
            units = E2E_UNITS
    context["host_speed"] = speed.summary()
    report["digest_committed"] = check_digest(
        args.workload, args.seed, report.pop("digests"), expected, outcome,
        args.write_expected,
    )
    if args.write_expected:
        harness.save_expected(expected)
    context["load_after"] = round(os.getloadavg()[0], 2)
    report.update(context=context, workload=args.workload, seed=args.seed,
                  trace=args.trace, root=str(ROOT))
    harness.emit(outcome, metrics, units, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
