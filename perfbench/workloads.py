"""Timed and traced runs of each workload.

:func:`timed` returns the end-to-end metrics, :func:`traced` the
per-layer ones; both also return a report dict whose ``digests`` list
holds one digest of the simulated outputs per pass (or session).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

import serve_mixed
import sim_workloads as sim
from harness import (
    WORK, HostSpeed, Outcome, digest, measure_setup, median,
)
from tracing import LayerTrace, timed_noop_runs

E2E = ("wall_s", "setup_s", "peak_rss_mb", "hit_p50_us", "hit_p99_us",
       "hit_qps", "miss_p50_ms", "miss_p90_ms")

#: Per-layer metrics of the serve daemon, zero where no daemon runs.
SERVE_ONLY = ("serve.handler_us", "serve.threads_peak",
              "serve.hit_p99_busy_us", "serve.hit_p99_idle_us")


def _check_sim(workload: str, outs: List[Dict[str, Any]],
               outcome: Outcome) -> Dict[str, Any]:
    """Per-pass correctness; returns digests and simulated accuracy."""
    report: Dict[str, Any] = {"digests": []}
    for out in outs:
        report["digests"].append(digest(sim.digest_view(out)))
        if workload == "fig1-micro":
            report["paper_err_pct"] = sim.check_fig1(out, outcome)
        else:
            for record in out["records"]:
                outcome.check(record["status"] == "ok", "a scale-64 run failed")
    return report


def timed(args: Any, outcome: Outcome,
          speed: HostSpeed) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics at the reference host speed; the report also
    holds them as measured (``raw``)."""
    if args.workload == "serve-mixed":
        out = serve_mixed.run(args.seed, args.seconds, outcome, speed)
        report = {k: out[k] for k in ("hits", "hits_busy", "misses",
                                       "windows", "setup_samples", "raw")}
        report["digests"] = [digest(out["digest_view"])]
        return {k: out[k] for k in E2E}, report

    setup = measure_setup(sim.SHAPES[args.workload][0], speed)
    res = sim.run(args.workload, args.seed, args.seconds, outcome, speed)
    report = _check_sim(args.workload, res["outs"], outcome)
    metrics = dict(res["metrics"], setup_s=setup["setup_s"])
    report.update(parts=res["parts"], setup_samples=setup["samples"],
                  hits=res["hits"], misses=res["misses"],
                  raw=dict(res["raw"], setup_s=median(setup["raw"])))
    return {k: metrics[k] for k in E2E}, report


def traced(args: Any, outcome: Outcome,
           speed: HostSpeed) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    if args.workload == "serve-mixed":
        return _traced_serve(args, outcome, speed)
    plain = sim.run(args.workload, args.seed, 0, outcome, speed, max_passes=1)
    report = _check_sim(args.workload, plain["outs"], outcome)
    init_barrier = timed_noop_runs(sim.SHAPES[args.workload])
    trace = LayerTrace()
    with trace:
        res = sim.run(args.workload, args.seed, 0, outcome, speed,
                      max_passes=1)
    report["digests"] += _check_sim(args.workload, res["outs"], outcome)["digests"]
    layer = trace.layer_metrics()
    layer.update({k: 0.0 for k in SERVE_ONLY})
    layer["mpi.init_barrier_s"] = init_barrier
    plain_wall = plain["metrics"]["wall_s"]
    traced_wall = res["metrics"]["wall_s"]
    layer["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    spans = WORK / f"trace-{args.workload}-{args.seed}.spans.jsonl"
    trace.write_spans(spans)
    report.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                  bases=trace.bases, spans=str(spans))
    return layer, report


def _traced_serve(args: Any, outcome: Outcome,
                  speed: HostSpeed) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    half = args.seconds / 2.0
    plain = serve_mixed.session(args.seed, half, outcome,
                                f"serve-{args.seed}-plain", speed)
    out_path = WORK / f"trace-serve-mixed-{args.seed}.json"
    out_path.unlink(missing_ok=True)
    traced = serve_mixed.session(args.seed, half, outcome,
                                 f"serve-{args.seed}-traced", speed,
                                 traced_out=out_path)
    daemon = json.loads(out_path.read_text())
    layer = {k: v for k, v in daemon.items()
             if k not in ("bases", "machines_built")}
    layer["serve.hit_p99_busy_us"] = traced["serve.hit_p99_busy_us"]
    layer["serve.hit_p99_idle_us"] = traced["serve.hit_p99_idle_us"]
    layer["mpi.init_barrier_s"] = timed_noop_runs(sim.SHAPES["fig1-micro"])
    layer["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    report = {
        "digests": [digest(plain["digest_view"]), digest(traced["digest_view"])],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "bases": daemon["bases"],
        "machines_built": daemon["machines_built"],
        "hits": traced["hits"], "hits_busy": traced["hits_busy"],
        "misses": traced["misses"],
    }
    return layer, report
