"""The simulation workloads, ``fig1-micro`` and ``scale-64``.

A run repeats the workload's *pass* for about ``--seconds``.  A pass is
made of parts (fig1-micro: Figure 1(a), Figure 1(b), the anchors;
scale-64: the cold campaign).  ``wall_s`` sums, over the parts, each
part's lower quartile across passes.  Every timed interval is brought to
the reference host speed (:class:`harness.HostSpeed`).  The simulated
outputs of every pass are digested for the correctness gate.

The workload's runs are also answered the way a user re-asks for them,
through an in-process ``JobScheduler`` with the serve daemon's settings
(:class:`ResultTier`): misses are runs that must be simulated, hits are
re-asks of runs already computed.  Hit blocks are spread between the
parts of every pass so that they sample the whole run; each block is a
window of the hit statistics, and each group of misses one of the miss
statistics (see :func:`harness.across_windows`).
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    WORK, HostSpeed, Outcome, across_windows, clock, hit_window, miss_window,
    peak_rss_mb_self, speed_factor,
)

from repro.campaign import CampaignEngine, JobScheduler, RunSpec
from repro.core.calibration import microbenchmark_anchors
from repro.core.figures import fig1a_latency, fig1b_bandwidth
from repro.units import KiB

#: Paper values of the two quantitative Figure 1 anchors (MB/s).
PAPER_8K_MBPS = {"elan_8k_bandwidth": 552.0, "ib_8k_bandwidth": 249.0}

#: Hits per block (20-40 ms).
HIT_BLOCK = 1000
#: Windows of hit statistics after each part of a pass, and the hit
#: blocks of each window (scale-64 has one part per pass, so it takes
#: more, smaller windows).
HIT_WINDOWS = {"fig1-micro": (1, 4), "scale-64": (4, 2)}
#: Consecutive misses per window: fig1-micro asks each of its eight
#: ping-pong points in a row (~0.3 s); scale-64's pass computes two runs.
MISS_GROUP = {"fig1-micro": 8, "scale-64": 2}

#: The scale-64 campaign: Sweep3D n=32 on 64 nodes, one spec per fabric.
SCALE_SPECS = (
    {"app": "sweep3d", "network": "ib", "nodes": 64, "app_args": {"n": 32},
     "topology": {"kind": "fattree", "radix": 8}},
    {"app": "sweep3d", "network": "elan", "nodes": 64, "app_args": {"n": 32},
     "topology": {"kind": "torus", "dims": "4x4x4"}},
)

#: Figure 1 ping-pong points that fig1-micro also computes as runs.
#: Eager sizes of one cost class, so the miss percentiles fall inside
#: one cluster of samples instead of between two.
FIG1_RUN_SIZES = (0, 64, 512, 1 * KiB)
FIG1_LABELS = {"ib": "4X InfiniBand", "elan": "Quadrics Elan-4"}

SHAPES = {
    "fig1-micro": [
        {"network": "ib", "nodes": 2},
        {"network": "elan", "nodes": 2},
    ],
    "scale-64": [
        {"network": s["network"], "nodes": s["nodes"], "topology": s["topology"]}
        for s in SCALE_SPECS
    ],
}


def fresh_root(name: str) -> Path:
    root = WORK / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return root


def _series(fig: Any) -> List[Any]:
    return [[s.label, list(s.x), list(s.y)] for s in fig.series]


def check_fig1(out: Dict[str, Any], outcome: Outcome) -> float:
    """Anchor and shape checks; returns ``paper_err_pct``."""
    for name, (_, passed) in sorted(out["anchors"].items()):
        outcome.check(passed, f"anchor {name} out of its accepted range")
    by = {s.label: s for s in out["_fig1a"].series}
    elan, ib = by[FIG1_LABELS["elan"]], by[FIG1_LABELS["ib"]]
    ratio = elan.at(0.0) / ib.at(0.0)
    outcome.check(0.35 <= ratio <= 0.65, f"fig1a latency ratio {ratio}")
    jump = ib.at(float(2 * KiB)) / ib.at(float(1 * KiB))
    outcome.check(jump > 1.5, f"fig1a IB eager jump {jump}")
    errs = [
        abs(out["anchors"][name][0] - paper) / paper
        for name, paper in sorted(PAPER_8K_MBPS.items())
    ]
    return 100.0 * sum(errs) / len(errs)


def digest_view(out: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated outputs of a pass, without private helpers."""
    return {k: v for k, v in out.items() if not k.startswith("_")}


class ResultTier:
    """A workload's runs answered through an in-process ``JobScheduler``."""

    def __init__(self, root: Path, seed: int, outcome: Outcome) -> None:
        self.scheduler = JobScheduler.at(
            root, workers=1, memory_cache=4096, journal_reused=False
        )
        self.outcome = outcome
        self.rng = random.Random(seed)
        self.warm: List[Dict[str, Any]] = []
        #: (start, end) of each miss.
        self.misses: List[Tuple[float, float]] = []
        self.hits = 0
        #: (start, end, latencies in µs) of each call to :meth:`hit_blocks`.
        self.hit_calls: List[Tuple[float, float, List[float]]] = []

    def miss(self, spec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Submit a fresh run and wait for its record."""
        t0 = clock()
        sub = self.scheduler.submit(RunSpec.from_dict(spec))
        done = sub.source == "scheduled" and self.scheduler.wait(
            [sub.job.id], timeout_s=120
        )
        self.misses.append((t0, clock()))
        return sub.job.record if done else None

    def add_warm(self, specs: List[Dict[str, Any]]) -> None:
        for spec in specs:
            sub = self.scheduler.submit(RunSpec.from_dict(spec))
            self.outcome.check(sub.source == "cache",
                               "a computed run is not cached")
        self.warm.extend(specs)

    def hit_windows(self, workload: str) -> None:
        """Re-ask warm runs in seed-shuffled order, ``HIT_BLOCK`` a block,
        for the workload's ``HIT_WINDOWS`` after a part."""
        windows, blocks = HIT_WINDOWS[workload]
        order = list(range(len(self.warm)))
        wrong = 0
        for _ in range(windows):
            lat: List[float] = []
            start = clock()
            for _ in range(blocks):
                for i in range(HIT_BLOCK):
                    if i % len(order) == 0:
                        self.rng.shuffle(order)
                    spec = self.warm[order[i % len(order)]]
                    t0 = clock()
                    sub = self.scheduler.submit(RunSpec.from_dict(spec))
                    lat.append(1e6 * (clock() - t0))
                    wrong += sub.source != "cache"
            self.hit_calls.append((start, clock(), lat))
        self.hits += windows * blocks * HIT_BLOCK
        self.outcome.attempted += windows * blocks * HIT_BLOCK
        self.outcome.failed += wrong
        if wrong:
            self.outcome.problems.append(f"{wrong} hits from the wrong tier")

    def close(self) -> None:
        self.scheduler.close()

    def metrics(self, group: int,
                speed: Optional[HostSpeed]) -> Dict[str, float]:
        """Hit statistics across :meth:`hit_blocks` calls, miss statistics
        across groups of ``group`` consecutive misses; each interval at the
        reference speed of ``speed`` (as measured without it)."""
        hits = [hit_window(lat, end - start, speed_factor(speed, start, end))
                for start, end, lat in self.hit_calls]
        miss_ms = [1e3 * (end - start) * speed_factor(speed, start, end)
                   for start, end in self.misses]
        misses = [miss_window(miss_ms[i:i + group])
                  for i in range(0, len(miss_ms) - group + 1, group)]
        return {**across_windows(hits), **across_windows(misses)}


def _fig1_runs(seed: int, index: int) -> List[Dict[str, Any]]:
    """Pass ``index``'s sixteen ping-pong runs: the eight points twice,
    each time one window of misses; fresh spec seeds make fresh keys."""
    return [
        {"app": "pingpong", "network": net, "nodes": 2,
         "seed": 1000 * seed + 2 * index + rep, "app_args": {"size": size}}
        for rep in (0, 1) for net in ("ib", "elan") for size in FIG1_RUN_SIZES
    ]


def _fig1_pass(seed: int, index: int, tier: ResultTier,
               parts: Dict[str, List[Tuple[float, float]]]) -> Dict[str, Any]:
    runs = _fig1_runs(seed, index)
    records: List[Optional[Dict[str, Any]]] = []
    results: Dict[str, Any] = {}
    steps = (
        ("fig1a", lambda: fig1a_latency(quick=True, seed=seed)),
        ("fig1b", lambda: fig1b_bandwidth(quick=True, seed=seed)),
        ("anchors", lambda: microbenchmark_anchors(seed=seed)),
    )
    # Misses and hit blocks sit between the parts, spread over the run.
    group_size = MISS_GROUP["fig1-micro"]
    for k, (name, step) in enumerate(steps):
        group = runs[k * group_size:(k + 1) * group_size]
        records += [tier.miss(spec) for spec in group]
        if index == 0:
            tier.add_warm(group)
        t0 = clock()
        results[name] = step()
        parts.setdefault(name, []).append((t0, clock()))
        tier.hit_windows("fig1-micro")
    fig_a, fig_b, anchors = results["fig1a"], results["fig1b"], results["anchors"]
    # Each run record must equal the Figure 1(a) point for its size.
    latency = {(s.label, x): y for s in fig_a.series for x, y in zip(s.x, s.y)}
    for spec, record in zip(runs, records):
        want = latency[(FIG1_LABELS[spec["network"]],
                        float(spec["app_args"]["size"]))]
        tier.outcome.check(
            record is not None and record.get("value") == want,
            f"run {spec['network']} {spec['app_args']['size']} B "
            f"disagrees with Figure 1(a)",
        )
    return {
        "fig1a": _series(fig_a),
        "fig1b": _series(fig_b),
        "anchors": {a.name: [a.measured, a.passed] for a in anchors},
        "_fig1a": fig_a,
    }


def _scale_pass(seed: int, index: int,
                parts: Dict[str, List[Tuple[float, float]]]) -> Dict[str, Any]:
    """One cold two-spec campaign on a fresh root."""
    root = fresh_root(f"scale-{seed}-{index}")
    specs = [RunSpec.from_dict(dict(d, seed=seed)) for d in SCALE_SPECS]
    engine = CampaignEngine(root=root, workers=1, echo=None)
    t0 = clock()
    result = engine.run_specs(specs)
    parts.setdefault("campaign", []).append((t0, clock()))
    return {
        "records": [
            {k: r.get(k) for k in ("status", "value", "elapsed_us",
                                    "sim_end_us", "metrics")}
            for r in result.records
        ],
        "_records": result.records,
        "_root": root,
    }


def run(workload: str, seed: int, seconds: float, outcome: Outcome,
        speed: HostSpeed, max_passes: int = 0) -> Dict[str, Any]:
    """Repeat the pass for about ``seconds`` (at least once).

    Another pass starts only if it is expected to end within half a
    pass of the deadline, so the pass count does not flip with noise.
    ``metrics`` are at the reference host speed, ``raw`` as measured.
    """
    parts: Dict[str, List[Tuple[float, float]]] = {}
    outs: List[Dict[str, Any]] = []
    tier: Optional[ResultTier] = None
    start = clock()
    try:
        while True:
            t0 = clock()
            if workload == "fig1-micro":
                if tier is None:
                    tier = ResultTier(fresh_root(f"fig1-runs-{seed}"), seed,
                                      outcome)
                out = _fig1_pass(seed, len(outs), tier, parts)
            else:
                out = _scale_pass(seed, len(outs), parts)
                if tier is None:
                    tier = ResultTier(out["_root"], seed, outcome)
                    tier.add_warm([dict(d, seed=seed) for d in SCALE_SPECS])
                # The records' compute times are the misses; the runs
                # were computed one after the other, from the campaign start.
                t_run = parts["campaign"][-1][0]
                for record in out["_records"]:
                    tier.misses.append((t_run, t_run + record["wall_s"]))
                    t_run += record["wall_s"]
                tier.hit_windows("scale-64")
            outs.append(out)
            if len(outs) == 1:
                # Later passes repeat the first, but how many run depends
                # on the host's speed.
                peak_rss_mb = peak_rss_mb_self()
            pass_s = clock() - t0
            if max_passes and len(outs) >= max_passes:
                break
            if clock() - start + 0.5 * pass_s > seconds:
                break
    finally:
        if tier is not None:
            tier.close()

    def metrics(scale: Optional[HostSpeed]) -> Dict[str, float]:
        wall_s = sum(
            across_windows([
                {"wall_s": (end - start) * speed_factor(scale, start, end)}
                for start, end in times
            ])["wall_s"]
            for times in parts.values()
        )
        return dict(tier.metrics(MISS_GROUP[workload], scale), wall_s=wall_s,
                    peak_rss_mb=peak_rss_mb)

    return {
        "metrics": metrics(speed),
        "raw": metrics(None),
        "parts": {name: [end - start for start, end in times]
                  for name, times in parts.items()},
        "outs": outs,
        "hits": tier.hits,
        "misses": len(tier.misses),
    }
