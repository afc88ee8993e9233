"""The ``serve-mixed`` workload: hits and misses against one daemon.

``repro-serve --workers 1`` runs in its own process on a root pre-warmed
(by the batch engine) with a fixed set of 2-node ping-pong runs.  This
process is the only client.  It drives two keep-alive ``TCP_NODELAY``
connections, both closed loops:

* H re-asks warm specs through ``POST /v1/runs``; every body must be a
  ``cache`` answer equal to the batch record;
* M posts fresh seed-derived miss specs with ``wait_s``, pausing
  ``MISS_GAP_S`` after each answer, so hits arrive both while the
  daemon's serial worker simulates and while it is idle.

Failed operations: non-2xx replies, timeouts, connection errors and
wrong-tier answers.  After the daemon stops, ``jobs.jsonl`` must hold
no non-terminal job and every miss record must equal a direct
``execute_run`` of its spec.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from harness import (
    BENCH_DIR, SETUP_REPEATS, HostSpeed, Outcome, across_windows, canonical,
    child_env, clock, hit_window, median, miss_window, peak_rss_mb_of,
    percentile, speed_factor,
)
from sim_workloads import fresh_root

from repro.campaign import CampaignEngine, RunSpec, execute_run

#: The warm set: cached before the daemon starts, re-asked by H.
WARM_SIZES = (0, 64, 1024, 4096, 8192, 16384)
#: The miss mix; each cycle of len(MISS_MIX) misses is one shuffle of it.
MISS_MIX = [(net, size) for net in ("ib", "elan") for size in (0, 1024, 4096, 8192)]
#: Pause of connection M after each miss answer.
MISS_GAP_S = 0.1
#: Misses whose records form the digest and the traced counts.
MISS_PREFIX = 24
#: Miss cycles per window of statistics (about 1.3 s and 2000+ hits).
WINDOW_CYCLES = 1
#: Windows with fewer hits than this are set aside.
MIN_WINDOW_HITS = 200
READY_TIMEOUT_S = 30.0


def warm_dicts() -> List[Dict[str, Any]]:
    return [
        {"app": "pingpong", "network": net, "nodes": 2,
         "app_args": {"size": size}}
        for net in ("ib", "elan") for size in WARM_SIZES
    ]


def miss_dict(seed: int, i: int) -> Dict[str, Any]:
    """The ``i``-th miss spec: a seed-shuffled cycle through MISS_MIX.

    The spec seed makes every key fresh (warm specs use seed 0).
    """
    cycle, pos = divmod(i, len(MISS_MIX))
    order = list(MISS_MIX)
    random.Random(f"{seed}:{cycle}").shuffle(order)
    net, size = order[pos]
    return {"app": "pingpong", "network": net, "nodes": 2,
            "seed": 100_000 + 1_000 * seed + i, "app_args": {"size": size}}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class Daemon:
    """One serve daemon process on ``root``."""

    def __init__(self, root: Path, traced_out: Optional[Path] = None) -> None:
        self.port = _free_port()
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro.serve.cli", "--root", str(root),
                   "--port", str(self.port), "--workers", "1", "--quiet"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_helper.py"),
                   "--root", str(root), "--port", str(self.port),
                   "--out", str(traced_out),
                   "--first-machines", str(MISS_PREFIX)]
        self.spawned = clock()
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self._wait_ready()
        self.ready = clock()

    def _wait_ready(self) -> None:
        deadline = clock() + READY_TIMEOUT_S
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "serve daemon exited: " + self.proc.stderr.read().decode()
                )
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=5
                )
                conn.request("GET", "/v1/status")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("serve daemon did not answer /v1/status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


class _MissState:
    def __init__(self) -> None:
        self.inflight = False
        self.seq = 0


def _post_raw(conn: http.client.HTTPConnection, payload: str):
    conn.request("POST", "/v1/runs", body=payload,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def _post(conn: http.client.HTTPConnection, body: Dict[str, Any]):
    status, raw = _post_raw(conn, json.dumps(body))
    return status, json.loads(raw)


def drive(port: int, seed: int, seconds: float, reference: List[Any],
          outcome: Outcome) -> Dict[str, Any]:
    """Run both connections for ``seconds``; returns raw samples."""
    warm = warm_dicts()
    stop = threading.Event()
    miss = _MissState()
    hits: List[tuple] = []  # (start, end, busy)
    misses: List[tuple] = []  # (index, latency_s, spec, record, start)
    errors: List[str] = []
    lock = threading.Lock()

    def fail(what: str) -> None:
        with lock:
            errors.append(what)

    def hit_loop() -> None:
        rng = random.Random(seed)
        order = list(range(len(warm)))
        payloads = [json.dumps(d) for d in warm]
        # A body byte-equal to one already checked needs no parsing, so
        # the client stays light while the daemon is measured.
        checked: List[Optional[bytes]] = [None] * len(warm)
        conn = _connect(port)
        i = 0
        while not stop.is_set():
            if i % len(order) == 0:
                rng.shuffle(order)
            w = order[i % len(order)]
            i += 1
            before = (miss.inflight, miss.seq)
            t0 = clock()
            try:
                status, raw = _post_raw(conn, payloads[w])
            except (OSError, http.client.HTTPException) as exc:
                fail(f"hit: {type(exc).__name__}")
                conn.close()
                conn = _connect(port)
                continue
            t1 = clock()
            busy = before[0] or miss.inflight or miss.seq != before[1]
            if status == 200 and raw == checked[w]:
                hits.append((t0, t1, busy))
                continue
            try:
                data = json.loads(raw)
            except ValueError:
                data = {}
            if status != 200 or data.get("source") != "cache":
                fail(f"hit answered {status} {data.get('source')}")
            elif data.get("record") != reference[w]:
                fail("hit body differs from the batch record")
            else:
                checked[w] = raw
                hits.append((t0, t1, busy))
        conn.close()

    def miss_loop() -> None:
        conn = _connect(port)
        i = 0
        while not stop.is_set():
            spec = miss_dict(seed, i)
            miss.inflight = True
            t0 = clock()
            try:
                status, data = _post(conn, {"spec": spec, "wait_s": 60})
            except (OSError, http.client.HTTPException, ValueError) as exc:
                miss.inflight = False
                fail(f"miss: {type(exc).__name__}")
                conn.close()
                conn = _connect(port)
                continue
            finally:
                miss.seq += 1
            latency = clock() - t0
            miss.inflight = False
            job = data.get("job") or {}
            record = job.get("record") or {}
            if (status != 200 or data.get("source") != "scheduled"
                    or job.get("state") != "done"
                    or record.get("status") != "ok"):
                fail(f"miss answered {status} {data.get('source')}")
            else:
                misses.append((i, latency, spec, record, t0))
            i += 1
            stop.wait(MISS_GAP_S)
        conn.close()

    threads = [threading.Thread(target=hit_loop, name="conn-H"),
               threading.Thread(target=miss_loop, name="conn-M")]
    for t in threads:
        t.start()
    time.sleep(seconds)
    stop.set()
    for t in threads:
        t.join(timeout=90)
    outcome.attempted += len(hits) + len(misses) + len(errors)
    outcome.failed += len(errors)
    outcome.problems.extend(errors[:10])
    return {"hits": hits, "misses": misses}


def summarize(raw: Dict[str, Any], speed: HostSpeed) -> Dict[str, Any]:
    """Statistics per window (``WINDOW_CYCLES`` miss cycles and the hits
    that completed meanwhile), then across windows, at the reference host
    speed (``raw``: as measured).  A window's ``wall_s`` is the summed
    latency of its misses."""
    hits, misses = raw["hits"], raw["misses"]
    busy = [1e6 * (t1 - t0) for t0, t1, b in hits if b]
    idle = [1e6 * (t1 - t0) for t0, t1, b in hits if not b]
    size = WINDOW_CYCLES * len(MISS_MIX)
    cycles: Dict[int, List[tuple]] = {}
    for miss in misses:
        cycles.setdefault(miss[0] // size, []).append(miss)
    ends = [t1 for _, t1, _ in hits]  # one thread appends: in order

    def windows(scale: Optional[HostSpeed]) -> List[Dict[str, float]]:
        out = []
        for cycle in cycles.values():
            if len(cycle) < size:
                continue
            start = min(m[4] for m in cycle)
            end = max(m[4] + m[1] for m in cycle)
            lo, hi = bisect.bisect_left(ends, start), bisect.bisect_left(ends, end)
            lat = [1e6 * (t1 - t0) for t0, t1, _ in hits[lo:hi]]
            if len(lat) < MIN_WINDOW_HITS:
                continue
            miss_s = [m[1] * speed_factor(scale, m[4], m[4] + m[1])
                      for m in cycle]
            out.append(dict(
                hit_window(lat, end - start, speed_factor(scale, start, end)),
                **miss_window([1e3 * t for t in miss_s]),
                wall_s=sum(miss_s),
            ))
        return out

    scaled = windows(speed)
    return {
        **across_windows(scaled),
        "raw": across_windows(windows(None)),
        "windows": len(scaled),
        "serve.hit_p99_busy_us": percentile(busy, 99) if busy else 0.0,
        "serve.hit_p99_idle_us": percentile(idle, 99) if idle else 0.0,
        "hits": len(hits),
        "hits_busy": len(busy),
        "misses": len(misses),
    }


def _jobs_terminal(root: Path) -> bool:
    state: Dict[str, str] = {}
    path = root / "jobs.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip():
                data = json.loads(line)
                state[data["id"]] = data.get("state")
    return all(s in ("done", "quarantined") for s in state.values())


def session(seed: int, seconds: float, outcome: Outcome, name: str,
            speed: HostSpeed, setup_spawns: int = 0,
            traced_out: Optional[Path] = None) -> Dict[str, Any]:
    """Pre-warm a fresh root, start a daemon, drive it, check it."""
    root = fresh_root(name)
    warm = [RunSpec.from_dict(d) for d in warm_dicts()]
    batch = CampaignEngine(root=root, workers=1, echo=None).run_specs(warm)
    reference = [canonical(r, drop=()) for r in batch.records]
    daemons: List[Daemon] = []
    for _ in range(setup_spawns):
        daemons.append(Daemon(root))
        daemons[-1].stop()
    daemon = Daemon(root, traced_out=traced_out)
    daemons.append(daemon)
    try:
        raw = drive(daemon.port, seed, seconds, reference, outcome)
        rss = peak_rss_mb_of(daemon.proc.pid)
    finally:
        daemon.stop()
    outcome.check(_jobs_terminal(root), "jobs.jsonl holds a non-terminal job")
    outcome.check(len(raw["misses"]) >= MISS_PREFIX,
                  f"fewer than {MISS_PREFIX} misses completed")
    for _, _, spec, record, _ in raw["misses"]:
        direct = execute_run(RunSpec.from_dict(spec))
        outcome.check(canonical(record) == canonical(direct),
                      f"miss record differs from execute_run: {spec}")
    out = summarize(raw, speed)
    setups = [(d.ready - d.spawned) * speed.factor(d.spawned, d.ready)
              for d in daemons]
    out["setup_s"] = median(setups)
    out["setup_samples"] = setups
    out["raw"]["setup_s"] = median([d.ready - d.spawned for d in daemons])
    out["peak_rss_mb"] = rss if rss is not None else 0.0
    first = sorted(raw["misses"], key=lambda m: m[0])[:MISS_PREFIX]
    out["digest_view"] = {
        "warm": [canonical(r) for r in batch.records],
        "misses": [canonical(m[3]) for m in first],
    }
    return out


def run(seed: int, seconds: float, outcome: Outcome,
        speed: HostSpeed) -> Dict[str, Any]:
    """The timed run: set-up spawns, then the loaded session."""
    return session(seed, seconds, outcome, f"serve-{seed}", speed,
                   setup_spawns=SETUP_REPEATS - 1)
