"""Simulator throughput (events/sec) across fabric topologies.

Not a paper figure — a performance acceptance pass for the topology
and failover subsystems.  Both tests are thin wrappers over
:mod:`repro.perf.ladder`: the same rungs, timed unprofiled over the
same trials, that the ``repro-perf`` CLI runs (and records in
``BENCH_perf.json``), asserted on here.
"""

from repro.perf import ladder_cases, run_case
from repro.perf.ladder import FLOOR_EVENTS_PER_SEC


def _run(names, quick: bool):
    return [run_case(case, quick=quick) for case in ladder_cases(names)]


def test_topology_events_per_sec(benchmark, quick):
    rows = benchmark.pedantic(
        lambda: _run(["crossbar-64", "fattree-256"], quick),
        rounds=1,
        iterations=1,
    )

    print()
    print(f"{'case':>12} {'latency':>12} {'events':>10} {'events/sec':>12}")
    for row in rows:
        print(
            f"{row['case']:>12} {row['latency_us']:>9.2f} us "
            f"{row['events']:>10} {row['events_per_sec']:>12}"
        )

    by_case = {row["case"]: row for row in rows}
    # The deeper tree pays real per-hop latency: the distant-pair route
    # crosses four ISLs, so it must be measurably slower than one chassis.
    assert (
        by_case["fattree-256"]["latency_us"]
        > by_case["crossbar-64"]["latency_us"]
    )
    # Throughput floor: catch an order-of-magnitude kernel regression
    # without flaking on machine noise.
    assert all(
        row["events_per_sec"] > FLOOR_EVENTS_PER_SEC for row in rows
    )


def test_degraded_fabric_events_per_sec(benchmark, quick):
    rows = benchmark.pedantic(
        lambda: _run(["degraded-fattree-64"], quick), rounds=1, iterations=1
    )
    row = rows[0]

    print()
    print(
        f"{row['case']}: bw ratio {row['bw_ratio']:.3f}, "
        f"{row['failovers']} failover(s), "
        f"{row['events']} events, {row['events_per_sec']} events/sec"
    )
    # Degraded mode must still be a simulation, not a crawl: same
    # order-of-magnitude throughput floor as the healthy fabrics.
    assert row["events_per_sec"] > FLOOR_EVENTS_PER_SEC
    assert 0.0 < row["bw_ratio"] < 1.0
    assert row["failovers"] >= 1
