"""Serve-layer throughput: cached queries per second over HTTP.

Not a paper figure — a performance acceptance pass for ``repro-serve``.
A warmed daemon must answer repeated cached ``POST /v1/runs`` queries at
wire speed: every request pays full HTTP parsing, spec canonicalization,
key derivation and the in-memory LRU lookup, so a regression anywhere on
that path (a stray disk read per hit, an accidental journal append, a
lock held across JSON encoding) shows up as a queries/sec drop.  Results
land in ``BENCH_serve.json`` at the repo root; CI gates on the 1000 qps
floor and uploads the file as an artifact for trend tracking.
"""

import http.client
import json
import math
import socket
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignEngine, RunSpec
from repro.serve import ServeService

_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = _ROOT / "BENCH_serve.json"

#: The cached query every benchmark request re-asks.
SPEC = {"app": "pingpong", "network": "ib", "nodes": 2,
        "app_args": {"size": 1024}}

#: The committed gate: a warmed daemon must clear this many cached
#: queries per second end-to-end through the HTTP stack.
CACHE_HIT_QPS_FLOOR = 1_000


def _percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def _post(conn: http.client.HTTPConnection, path: str, body: dict) -> dict:
    payload = json.dumps(body)
    conn.request(
        "POST", path, body=payload,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    data = json.loads(resp.read())
    assert resp.status == 200, data
    return data


def _measure_serve(queries: int) -> list:
    root = Path(tempfile.mkdtemp(prefix="bench-serve-"))
    # Warm the cache through the batch engine: the daemon then serves
    # the exact record repro-campaign produced.
    batch = CampaignEngine(root=root, workers=1, echo=None).run_specs(
        [RunSpec.from_dict(SPEC)]
    )
    assert batch.records[0]["status"] == "ok"

    service = ServeService(root, workers=1, echo=None).start()
    conn = http.client.HTTPConnection(service.host, service.port, timeout=60)
    conn.connect()
    # The client writes headers and body separately too: without
    # TCP_NODELAY the second write stalls behind a delayed ACK.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        # One warm-up round trip (connection setup, LRU promotion).
        first = _post(conn, "/v1/runs", SPEC)
        assert first["source"] == "cache"

        latency_us = []
        wall0 = time.perf_counter()  # repro-lint: disable=RPR001
        for _ in range(queries):
            t0 = time.perf_counter()  # repro-lint: disable=RPR001
            body = _post(conn, "/v1/runs", SPEC)
            latency_us.append(
                1e6 * (time.perf_counter() - t0)  # repro-lint: disable=RPR001
            )
        wall = time.perf_counter() - wall0  # repro-lint: disable=RPR001
        assert body["source"] == "cache"
        hit_qps = queries / wall if wall > 0 else 0.0
        # The server's view of the hits: read before the cold query,
        # whose wait_s block would land in the same latency histogram.
        hit_metrics = service.state.metrics.as_dict()

        # One cold query end-to-end: schedule, wait, verify it cached.
        cold_spec = dict(SPEC, app_args={"size": 4096})
        cold0 = time.perf_counter()  # repro-lint: disable=RPR001
        cold = _post(conn, "/v1/runs", {"spec": cold_spec, "wait_s": 120})
        cold_wall = time.perf_counter() - cold0  # repro-lint: disable=RPR001
        assert cold["source"] == "scheduled"
        assert cold["job"]["state"] == "done"
        recached = _post(conn, "/v1/runs", cold_spec)
        assert recached["source"] == "cache"

        metrics = service.state.metrics.as_dict()
        return [
            {
                "case": "cache-hit-qps",
                "queries": queries,
                "wall_s": round(wall, 4),
                "queries_per_sec": round(hit_qps),
                "p50_us": round(_percentile(latency_us, 50), 1),
                "p99_us": round(_percentile(latency_us, 99), 1),
                "server_mean_latency_us": round(
                    hit_metrics["serve.http.runs.post.latency_us.mean"], 1
                ),
                "server_max_latency_us": round(
                    hit_metrics["serve.http.runs.post.latency_us.max"], 1
                ),
            },
            {
                "case": "cold-query",
                "wall_s": round(cold_wall, 4),
                "job_events": [
                    e["event"] for e in cold["job"]["events"]
                ],
                "cache_hits": metrics.get("serve.cache.hits"),
                "cache_misses": metrics.get("serve.cache.misses"),
            },
        ]
    finally:
        conn.close()
        service.close()


def test_serve_cached_queries_per_sec(benchmark, quick):
    queries = 300 if quick else 2_000

    rows = benchmark.pedantic(
        lambda: _measure_serve(queries), rounds=1, iterations=1
    )

    hit = rows[0]
    print()
    print(
        f"cache-hit qps: {hit['queries_per_sec']} "
        f"({hit['queries']} queries in {hit['wall_s']}s, "
        f"p50 {hit['p50_us']} us, p99 {hit['p99_us']} us)"
    )
    # The committed regression gate: a cached answer is a memory lookup
    # plus JSON over a warm socket — anything under the floor means the
    # hot path grew a disk read, a journal write, or a lock stall.
    assert hit["queries_per_sec"] > CACHE_HIT_QPS_FLOOR

    RESULT_PATH.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
