"""The perf ladder: a fixed workload set that floors kernel throughput.

Each rung is one simulation the repo already cares about — the
far-rank ping-pong on three fabrics, b_eff rings, a Sweep3D wavefront,
and the degraded-fabric failover case — run under the
:class:`~.profiler.KernelProfiler` and reduced to an events/sec row.
``repro-perf run`` emits the rows as ``BENCH_perf.json``, the one
trajectory file ``repro-perf diff`` gates against.

Case labels are stable identifiers: the diff gate matches baseline to
current rows by ``case``, so renaming a rung resets its trajectory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..apps import Sweep3dConfig, sweep3d_program
from ..faults import FaultPlan
from ..microbench.beff import (
    LOOP_COUNT,
    _ring_patterns,
    beff_program,
    beff_sizes,
)
from ..mpi import Machine, MpiRank
from ..topology import TopologySpec
from ..units import MiB, geometric_mean
from .profiler import KernelProfiler, _clock, kernel_chrome_trace
from .sampling import StackSampler

#: Ping-pong payload, matching the historical bench_perf.py runs.
PINGPONG_SIZE = 8192

#: Throughput floor (events/sec) every rung must clear — an
#: order-of-magnitude tripwire, not a tuned bound.
FLOOR_EVENTS_PER_SEC = 1_000


def far_pingpong(size: int, repetitions: int):
    """Ping-pong between rank 0 and the last rank (the longest route)."""

    def program(mpi: MpiRank):
        last = mpi.size - 1
        if mpi.rank not in (0, last):
            return None
        peer = last if mpi.rank == 0 else 0
        sbuf, rbuf = ("fp-send", mpi.rank), ("fp-recv", mpi.rank)
        t0 = mpi.now
        for _ in range(repetitions):
            if mpi.rank == 0:
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
            else:
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
        if mpi.rank == 0:
            return (mpi.now - t0) / (2.0 * repetitions)
        return None

    return program


@dataclass(frozen=True)
class LadderCase:
    """One rung: a named workload with quick and full parameters."""

    #: Stable identifier (the diff gate's join key).
    name: str
    #: Workload family: ``pingpong`` | ``beff`` | ``sweep3d`` | ``degraded``.
    app: str
    network: str
    nodes: int
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Family-specific knobs, keyed ``quick`` / ``full``.
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def param(self, key: str, quick: bool) -> Any:
        return self.params["quick" if quick else "full"][key]


#: The standard ladder.  Labels ``crossbar-64``/``fattree-256`` and
#: ``degraded-fattree-64`` predate the ladder (``benchmarks/bench_perf.py``
#: runs them by name) and must not change.
LADDER: List[LadderCase] = [
    LadderCase(
        name="crossbar-64",
        app="pingpong",
        network="elan",
        nodes=64,
        params={"quick": {"reps": 50}, "full": {"reps": 400}},
    ),
    LadderCase(
        name="fattree-256",
        app="pingpong",
        network="elan",
        nodes=256,
        topology=TopologySpec(kind="fattree", radix=16),
        params={"quick": {"reps": 50}, "full": {"reps": 400}},
    ),
    LadderCase(
        name="torus-64",
        app="pingpong",
        network="elan",
        nodes=64,
        topology=TopologySpec(kind="torus", dims="4x4x4"),
        params={"quick": {"reps": 50}, "full": {"reps": 400}},
    ),
    LadderCase(
        name="beff-16",
        app="beff",
        network="elan",
        nodes=16,
        params={
            "quick": {"max_size": 16 * 1024},
            "full": {"max_size": 1 * MiB},
        },
    ),
    LadderCase(
        name="sweep3d-64",
        app="sweep3d",
        network="elan",
        nodes=64,
        params={"quick": {"n": 32}, "full": {"n": 64}},
    ),
    LadderCase(
        name="degraded-fattree-64",
        app="degraded",
        network="ib",
        nodes=64,
        topology=TopologySpec(kind="fattree", radix=8),
        params={"quick": {"reps": 30}, "full": {"reps": 150}},
    ),
]


def ladder_cases(names: Optional[Sequence[str]] = None) -> List[LadderCase]:
    """The ladder, optionally restricted to ``names`` (order preserved)."""
    if names is None:
        return list(LADDER)
    by_name = {case.name: case for case in LADDER}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        known = ", ".join(sorted(by_name))
        raise KeyError(f"unknown ladder case(s) {unknown}; known: {known}")
    return [by_name[n] for n in names]


# -- one rung ----------------------------------------------------------------


def _machine(
    case: LadderCase,
    profiler: Optional[KernelProfiler],
    plan: Optional[FaultPlan] = None,
) -> Machine:
    return Machine(
        case.network,
        case.nodes,
        seed=0,
        topology=case.topology,
        faults=plan,
        profiler=profiler,
    )


def _timed_run(machine: Machine, program, check_invariants: bool = True):
    """Run ``program`` and return ``(result, wall_s, events)``.

    Wall time comes from the profiler module's clock around the run so
    the events/sec denominator and the attribution share one timebase.
    """
    t0 = _clock()
    result = machine.run(program, check_invariants=check_invariants)
    wall = _clock() - t0
    return result, wall, machine.sim.events_processed


def _base_row(
    case: LadderCase, quick: bool, events: int, wall: float
) -> Dict[str, Any]:
    return {
        "case": case.name,
        "app": case.app,
        "network": case.network,
        "nodes": case.nodes,
        "topology": case.topology.describe(),
        "quick": quick,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall) if wall > 0 else 0,
    }


def _run_pingpong(
    case: LadderCase, quick: bool, profiler: Optional[KernelProfiler]
) -> Dict[str, Any]:
    reps = case.param("reps", quick)
    machine = _machine(case, profiler)
    result, wall, events = _timed_run(
        machine, far_pingpong(PINGPONG_SIZE, reps)
    )
    row = _base_row(case, quick, events, wall)
    row.update(
        {
            "repetitions": reps,
            "latency_us": result.values[0],
            "elapsed_us": result.elapsed_us,
            "window_start_us": max(s for s, _ in result.rank_spans),
            "failovers": 0,
        }
    )
    return row


def _run_beff(
    case: LadderCase, quick: bool, profiler: Optional[KernelProfiler]
) -> Dict[str, Any]:
    sizes = beff_sizes(case.param("max_size", quick))
    machine = _machine(case, profiler)
    patterns = _ring_patterns(
        case.nodes, machine.sim.rng.stream("beff.patterns")
    )
    result, wall, events = _timed_run(
        machine, beff_program(patterns, sizes)
    )
    # Same reduction as run_beff: per-size aggregate bandwidth averaged
    # over patterns, logarithmically averaged over sizes.
    cells = result.values[0]
    per_size = []
    for size_idx, size in enumerate(sizes):
        bws = []
        for pat_idx in range(len(patterns)):
            elapsed = cells[pat_idx * len(sizes) + size_idx]
            bws.append(case.nodes * 2 * size * LOOP_COUNT / elapsed)
        per_size.append(sum(bws) / len(bws))
    row = _base_row(case, quick, events, wall)
    row.update(
        {
            "sizes": len(sizes),
            "max_size": sizes[-1],
            "beff_mbps": round(geometric_mean(per_size), 3),
            "elapsed_us": result.elapsed_us,
        }
    )
    return row


def _run_sweep3d(
    case: LadderCase, quick: bool, profiler: Optional[KernelProfiler]
) -> Dict[str, Any]:
    config = Sweep3dConfig(n=case.param("n", quick))
    machine = _machine(case, profiler)
    result, wall, events = _timed_run(machine, sweep3d_program(config))
    row = _base_row(case, quick, events, wall)
    row.update(
        {
            "n": config.n,
            "elapsed_us": result.elapsed_us,
            "timestep_us": round(max(result.values), 3),
        }
    )
    return row


def _run_degraded(
    case: LadderCase, quick: bool, profiler: Optional[KernelProfiler]
) -> Dict[str, Any]:
    """Pristine vs degraded IB runs on the same fat tree, one ISL dead.

    Only the degraded run is profiled — it exercises the full
    hard-failure path (liveness checks, timeout, retransmit, APM
    migration) and is the throughput this rung reports.
    """
    from ..campaign import default_kill_link

    reps = case.param("reps", quick)
    topo = case.topology
    dead = default_kill_link(
        case.nodes, {"kind": topo.kind, "radix": topo.radix}
    )
    program = far_pingpong(PINGPONG_SIZE, reps)

    pristine_machine = _machine(case, profiler=None)
    pristine, pristine_wall, _ = _timed_run(pristine_machine, program)

    start = max(s for s, _ in pristine.rank_spans)
    kill = round(start + 0.5 * pristine.elapsed_us, 3)
    plan = FaultPlan(link_down=dead, link_down_at_us=kill)
    machine = _machine(case, profiler, plan=plan)
    result, wall, events = _timed_run(machine, program)
    failovers = int(machine.sim.faults.stats().get("failovers", 0))
    if failovers < 1:
        raise RuntimeError(
            f"{case.name}: kill at {kill} us missed the measured window"
        )
    row = _base_row(case, quick, events, wall)
    row.update(
        {
            "repetitions": reps,
            "dead_link": dead,
            "kill_at_us": kill,
            "pristine_latency_us": pristine.values[0],
            "degraded_latency_us": result.values[0],
            "bw_ratio": round(pristine.elapsed_us / result.elapsed_us, 6),
            "failovers": failovers,
            "pristine_wall_s": round(pristine_wall, 4),
        }
    )
    return row


_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "pingpong": _run_pingpong,
    "beff": _run_beff,
    "sweep3d": _run_sweep3d,
    "degraded": _run_degraded,
}


def run_case(
    case: LadderCase,
    quick: bool = False,
    profile: bool = True,
    sample: bool = False,
    sample_interval_ms: float = 5.0,
    flamegraph_dir: Optional[Path] = None,
    chrome_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one rung; returns its JSON-ready row.

    ``profile=False`` skips the kernel profiler entirely (the row keeps
    events/wall from plain timing).  ``sample=True`` adds the stack
    sampler; ``flamegraph_dir``/``chrome_dir`` write
    ``<case>.collapsed`` / ``<case>.kernel.trace.json`` exports.
    """
    sampler = (
        StackSampler(interval_ms=sample_interval_ms) if sample else None
    )
    profiler = (
        KernelProfiler(sampler=sampler) if (profile or sample) else None
    )
    runner = _RUNNERS[case.app]
    row = runner(case, quick, profiler)
    if profiler is not None:
        row["perf"] = profiler.summary()
        if sampler is not None:
            row["samples"] = sampler.total_samples
        if flamegraph_dir is not None and sampler is not None:
            flamegraph_dir = Path(flamegraph_dir)
            flamegraph_dir.mkdir(parents=True, exist_ok=True)
            sampler.write_collapsed(flamegraph_dir / f"{case.name}.collapsed")
        if chrome_dir is not None:
            chrome_dir = Path(chrome_dir)
            chrome_dir.mkdir(parents=True, exist_ok=True)
            doc = kernel_chrome_trace(
                profiler,
                label=f"kernel:{case.name}",
                samples=sampler.samples if sampler is not None else None,
            )
            path = chrome_dir / f"{case.name}.kernel.trace.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
    return row


def run_ladder(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    profile: bool = True,
    sample: bool = False,
    flamegraph_dir: Optional[Path] = None,
    chrome_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Run the ladder (or the named subset) and return all rows."""
    rows = []
    for case in ladder_cases(names):
        if progress is not None:
            progress(f"{case.name} ...")
        row = run_case(
            case,
            quick=quick,
            profile=profile,
            sample=sample,
            flamegraph_dir=flamegraph_dir,
            chrome_dir=chrome_dir,
        )
        if progress is not None:
            progress(
                f"{case.name}: {row['events']} events, "
                f"{row['events_per_sec']} events/sec"
            )
        rows.append(row)
    return rows


# -- emission ----------------------------------------------------------------


def write_results(rows: List[Dict[str, Any]], out: Path) -> Dict[str, Any]:
    """Write the rows to ``out`` as the ``BENCH_perf.json`` document."""
    doc = {
        "schema": "repro.perf/1",
        "quick": bool(rows) and all(r.get("quick", False) for r in rows),
        "cases": rows,
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc
