"""Shared plumbing for the benchmark: paths, statistics, host speed, run
context, set-up probes, committed expectations and the result line."""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch state (campaign roots, daemon roots, span files), inside the
#: checkout and ignored by git.
WORK = ROOT / ".perfbench-work"
EXPECTED = BENCH_DIR / "expected.json"

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5

clock = time.perf_counter


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def hit_window(latencies_us: Sequence[float], span_s: float,
               factor: float = 1.0) -> Dict[str, float]:
    """Hit statistics of one window, from its latencies and how long it
    lasted, with times scaled by ``factor`` (see :class:`HostSpeed`)."""
    return {
        "hit_p50_us": percentile(latencies_us, 50) * factor,
        "hit_p99_us": percentile(latencies_us, 99) * factor,
        "hit_qps": len(latencies_us) / (span_s * factor),
    }


def miss_window(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """Miss statistics of one window (nearest rank, so with eight misses
    ``miss_p90_ms`` is the slowest)."""
    return {
        "miss_p50_ms": percentile(latencies_ms, 50),
        "miss_p90_ms": percentile(latencies_ms, 90),
    }


def across_windows(windows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Each statistic's lower quartile across the windows of a run (upper
    for ``hit_qps``).  With fewer than four windows this is the best one.
    """
    return {
        name: percentile([w[name] for w in windows],
                         75 if name == "hit_qps" else 25)
        for name in windows[0]
    }


# -- host speed ---------------------------------------------------------------

#: Period of the host-speed probe.
PROBE_PERIOD_S = 0.05
#: Median time of :func:`probe_loop` on the host the benchmark was tuned
#: on (a 2-vCPU Xeon VM) in its fast phases; only fixes the scale.
PROBE_REF_S = 0.0009
#: How much nicer than the probe the measured work runs.
WORK_NICE = 10


def probe_loop(procs: int = 128, steps: int = 8) -> None:
    """A fixed piece of interpreter work shaped like the simulator's:
    generators resumed off a heap, small dicts and tuples (~1 ms)."""

    def proc(k: int):
        acc: Dict[int, int] = {}
        for i in range(steps):
            acc[i & 3] = acc.get(i & 3, 0) + k
            yield 0.5 * i

    heap = [(0.0, k, proc(k)) for k in range(procs)]
    seq = procs
    while heap:
        t, _, gen = heapq.heappop(heap)
        try:
            dt = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (t + dt, seq, gen))


class HostSpeed:
    """Tracks the speed of a shared host while a run measures.

    The host this was tuned on alternates, for seconds to minutes at a
    time, between a fast speed and ones 1.6-2.2x slower (the same 2-node
    run takes 37 ms or 62 ms), while a fixed piece of interpreter work
    slows down with it: the run's time over :func:`probe_loop`'s time
    stayed within a few percent across the phases.  So a daemon thread
    times :func:`probe_loop` every ``PROBE_PERIOD_S`` (about 2% of the
    CPU), and each timed interval of a run is brought to the reference
    speed: its times are multiplied, and its rates divided, by
    :meth:`factor`, ``PROBE_REF_S`` over the probe's time during the
    interval.  The benchmark pins itself and its children to one CPU, so
    the probe times the CPU the work runs on.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.loops: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed",
                                        daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        # Lower the priority of the calling thread, and so of every thread
        # and process it starts from now on, below the probe's: the probe
        # then times the host, not this run's own processes sharing its CPU.
        if hasattr(os, "setpriority"):
            os.setpriority(os.PRIO_PROCESS, 0,
                           os.getpriority(os.PRIO_PROCESS, 0) + WORK_NICE)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = clock()
            probe_loop()
            self.starts.append(t0)
            self.loops.append(clock() - t0)

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed during ``[start, end]``.

        Each probe time is first replaced by the median of it and its
        neighbours, which drops a probe that a thread switch stretched.
        """
        n = min(len(self.starts), len(self.loops))
        if n == 0:
            raise RuntimeError("the host-speed probe took no sample")
        lo = bisect.bisect_left(self.starts, start - PROBE_PERIOD_S, 0, n)
        hi = bisect.bisect_right(self.starts, end + PROBE_PERIOD_S, 0, n)
        if lo >= hi:  # no probe in the window: take the nearest one
            lo = min(lo, n - 1)
            hi = lo + 1
        loops = self.loops
        smooth = [
            median(loops[max(0, i - 1):min(n, i + 2)]) for i in range(lo, hi)
        ]
        return sum(PROBE_REF_S / s for s in smooth) / len(smooth)

    def summary(self) -> Dict[str, float]:
        """The run's probe count and median speed factor, for the report."""
        n = min(len(self.starts), len(self.loops))
        return {"probes": n,
                "median_factor": PROBE_REF_S / median(self.loops[:n])}


def speed_factor(speed: Optional[HostSpeed], start: float, end: float) -> float:
    """:meth:`HostSpeed.factor`, or 1 (times as measured) without ``speed``."""
    return speed.factor(start, end) if speed is not None else 1.0


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    The work and the host-speed probe then share a CPU; the serve daemon
    and its client hand off by context switches instead of waking an idle
    virtual CPU, which on a shared host varies far more.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def digest(obj: Any) -> str:
    """Short content hash of a JSON-ready object (floats at full repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def canonical(record: Dict[str, Any], drop: Sequence[str] = ("wall_s",)) -> Any:
    """A record as plain JSON data without its host-time fields."""
    data = json.loads(json.dumps(record, sort_keys=True))
    for key in drop:
        data.pop(key, None)
    return data


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of a live process, from ``/proc``."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


# -- run context --------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_context() -> Dict[str, Any]:
    """Machine facts recorded beside every result."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "load_before": round(load, 2),
        "load_high": load > nproc,
    }


# -- set-up probes ------------------------------------------------------------


def measure_setup(machine: Dict[str, Any], speed: HostSpeed) -> Dict[str, Any]:
    """Median of fresh-process ``import repro`` + first ``Machine`` build,
    at the reference host speed.

    Each probe is a new interpreter, so the import is cold in memory
    (the bytecode cache on disk is warm after the first probe).
    """
    probe = BENCH_DIR / "setup_probe.py"
    raw: List[float] = []
    totals: List[float] = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        out = subprocess.run(
            [sys.executable, str(probe), json.dumps(machine)],
            env=child_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        data = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(data["import_s"] + data["build_s"])
        totals.append(raw[-1] * speed.factor(t0, clock()))
    return {"setup_s": median(totals), "samples": totals, "raw": raw}


# -- committed expectations ---------------------------------------------------


def load_expected() -> Dict[str, Any]:
    try:
        return json.loads(EXPECTED.read_text())
    except (OSError, ValueError):
        return {}


def save_expected(data: Dict[str, Any]) -> None:
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- output -------------------------------------------------------------------


class Outcome:
    """Operation tallies and correctness failures of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """One operation or correctness check; ``what`` names a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def emit(
    outcome: Outcome,
    metrics: Dict[str, Any],
    units: Dict[str, str],
    report: Dict[str, Any],
) -> None:
    """Print the detailed report, then the result line (the last line)."""
    report = dict(report, problems=outcome.problems)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    line = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    sys.stdout.flush()
    print(json.dumps(line))
    sys.stdout.flush()
