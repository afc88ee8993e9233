"""The perf ladder: a fixed workload set, timed unprofiled.

Each rung is one simulation the repo already cares about — start-up
alone on 256 ranks, the far-rank ping-pong on three fabrics, b_eff
rings, a Sweep3D wavefront, and the degraded-fabric failover case.
Every rung runs :data:`TRIALS` times on fresh machines with no observer
attached, so the kernel takes its bare loop, and its row reports the
median ``wall_s`` with the fastest and slowest trial beside it.  The
event count and events/sec ride along as diagnostics: a trial that
processes a different number of events than the first is a broken
rung, not noise, and raises.  ``repro-perf run`` emits the rows as
``BENCH_perf.json``; ``repro-perf diff`` gates median ``wall_s``
between two such files.

Case labels are stable identifiers: the diff gate matches baseline to
current rows by ``case``, so renaming a rung resets its trajectory.
"""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import Sweep3dConfig, sweep3d_program
from ..faults import FaultPlan
from ..microbench.beff import (
    LOOP_COUNT,
    _ring_patterns,
    beff_program,
    beff_sizes,
)
from ..mpi import Machine, MpiRank, RunResult
from ..topology import TopologySpec
from ..units import MiB, geometric_mean
from .profiler import _clock

#: Ping-pong payload, matching the historical bench_perf.py runs.
PINGPONG_SIZE = 8192

#: Timed trials per rung; the row reports their median, min and max.
TRIALS = 5

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


def idle(mpi: MpiRank):
    """No work: the run is MPI_Init plus the start-up barrier."""
    yield from ()


@dataclass(frozen=True)
class LadderCase:
    """One rung: a named workload with quick and full parameters."""

    #: Stable identifier (the diff gate's join key).
    name: str
    #: Workload family: ``barrier`` | ``pingpong`` | ``beff`` |
    #: ``sweep3d`` | ``degraded``.
    app: str
    network: str
    nodes: int
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Family-specific knobs, keyed ``quick`` / ``full``.
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def param(self, key: str, quick: bool) -> Any:
        return self.params["quick" if quick else "full"][key]


#: The 256-rank fat tree of ``fattree-256``, which ``barrier-256`` starts
#: up alone.
_FATTREE_256 = TopologySpec(kind="fattree", radix=16)

#: The standard ladder.  Labels ``crossbar-64``/``fattree-256`` and
#: ``degraded-fattree-64`` predate the ladder (``benchmarks/bench_perf.py``
#: runs them by name) and must not change.
LADDER: List[LadderCase] = [
    LadderCase(
        name="barrier-256",
        app="barrier",
        network="elan",
        nodes=256,
        topology=_FATTREE_256,
    ),
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
        topology=_FATTREE_256,
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

#: Builds a rung's program for one fresh machine.
ProgramFor = Callable[[Machine], Callable[[MpiRank], Any]]


def _timed_run(
    case: LadderCase, program_for: ProgramFor, plan: Optional[FaultPlan] = None
) -> Tuple[RunResult, Machine, float]:
    """Build a machine, run the rung's program; ``(result, machine, wall_s)``.

    The clock covers ``Machine.run`` only, not the machine's build.  A
    full collection first frees the garbage of earlier runs, so no run
    pays for collecting another's machine.
    """
    machine = Machine(
        case.network, case.nodes, seed=0, topology=case.topology, faults=plan
    )
    program = program_for(machine)
    gc.collect()
    t0 = _clock()
    result = machine.run(program, check_invariants=True)
    return result, machine, _clock() - t0


def _trials(
    case: LadderCase,
    quick: bool,
    program_for: ProgramFor,
    plan: Optional[FaultPlan] = None,
) -> Tuple[RunResult, Machine, Dict[str, Any]]:
    """Time :data:`TRIALS` runs; returns the last run and the base row."""
    walls: List[float] = []
    events = None
    for trial in range(TRIALS):
        result = machine = None  # free the last trial's machine first
        result, machine, wall = _timed_run(case, program_for, plan)
        walls.append(wall)
        count = machine.sim.events_processed
        if events is None:
            events = count
        elif count != events:
            raise RuntimeError(
                f"{case.name}: trial {trial} processed {count} events, "
                f"trial 0 processed {events}"
            )
    median = statistics.median(walls)
    row = {
        "case": case.name,
        "app": case.app,
        "network": case.network,
        "nodes": case.nodes,
        "topology": case.topology.describe(),
        "quick": quick,
        "events": events,
        "wall_s": round(median, 4),
        "wall_s_min": round(min(walls), 4),
        "wall_s_max": round(max(walls), 4),
        "events_per_sec": round(events / median) if median > 0 else 0,
    }
    return result, machine, row


def _window_start(result: RunResult) -> float:
    """When the last rank left the start-up barrier (simulated us)."""
    return max(s for s, _ in result.rank_spans)


def _run_barrier(case: LadderCase, quick: bool) -> Dict[str, Any]:
    result, _, row = _trials(case, quick, lambda machine: idle)
    row["window_start_us"] = _window_start(result)
    return row


def _run_pingpong(case: LadderCase, quick: bool) -> Dict[str, Any]:
    reps = case.param("reps", quick)
    program = far_pingpong(PINGPONG_SIZE, reps)
    result, _, row = _trials(case, quick, lambda machine: program)
    row.update(
        {
            "repetitions": reps,
            "latency_us": result.values[0],
            "elapsed_us": result.elapsed_us,
            "window_start_us": _window_start(result),
            "failovers": 0,
        }
    )
    return row


def _run_beff(case: LadderCase, quick: bool) -> Dict[str, Any]:
    sizes = beff_sizes(case.param("max_size", quick))

    def program_for(machine: Machine):
        patterns = _ring_patterns(
            case.nodes, machine.sim.rng.stream("beff.patterns")
        )
        return beff_program(patterns, sizes)

    result, _, row = _trials(case, quick, program_for)
    # Same reduction as run_beff: per-size aggregate bandwidth averaged
    # over patterns (the cells run pattern-major), logarithmically
    # averaged over sizes.
    cells = result.values[0]
    per_size = []
    for size_idx, size in enumerate(sizes):
        bws = [
            case.nodes * 2 * size * LOOP_COUNT / elapsed
            for elapsed in cells[size_idx :: len(sizes)]
        ]
        per_size.append(sum(bws) / len(bws))
    row.update(
        {
            "sizes": len(sizes),
            "max_size": sizes[-1],
            "beff_mbps": round(geometric_mean(per_size), 3),
            "elapsed_us": result.elapsed_us,
        }
    )
    return row


def _run_sweep3d(case: LadderCase, quick: bool) -> Dict[str, Any]:
    config = Sweep3dConfig(n=case.param("n", quick))
    program = sweep3d_program(config)
    result, _, row = _trials(case, quick, lambda machine: program)
    row.update(
        {
            "n": config.n,
            "elapsed_us": result.elapsed_us,
            "timestep_us": round(max(result.values), 3),
        }
    )
    return row


def _run_degraded(case: LadderCase, quick: bool) -> Dict[str, Any]:
    """Pristine vs degraded IB runs on the same fat tree, one ISL dead.

    The pristine run places the kill and runs once; only the degraded
    run — the full hard-failure path (liveness checks, timeout,
    retransmit, APM migration) — is timed over the trials.
    """
    from ..campaign import default_kill_link

    reps = case.param("reps", quick)
    topo = case.topology
    dead = default_kill_link(
        case.nodes, {"kind": topo.kind, "radix": topo.radix}
    )
    program = far_pingpong(PINGPONG_SIZE, reps)

    pristine, _, pristine_wall = _timed_run(case, lambda machine: program)
    kill = round(_window_start(pristine) + 0.5 * pristine.elapsed_us, 3)
    plan = FaultPlan(link_down=dead, link_down_at_us=kill)
    result, machine, row = _trials(
        case, quick, lambda machine: program, plan=plan
    )
    failovers = int(machine.sim.faults.stats().get("failovers", 0))
    if failovers < 1:
        raise RuntimeError(
            f"{case.name}: kill at {kill} us missed the measured window"
        )
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


_RUNNERS: Dict[str, Callable[[LadderCase, bool], Dict[str, Any]]] = {
    "barrier": _run_barrier,
    "pingpong": _run_pingpong,
    "beff": _run_beff,
    "sweep3d": _run_sweep3d,
    "degraded": _run_degraded,
}


def run_case(case: LadderCase, quick: bool = False) -> Dict[str, Any]:
    """Run one rung :data:`TRIALS` times; returns its JSON-ready row."""
    return _RUNNERS[case.app](case, quick)


def run_ladder(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Run the ladder (or the named subset) and return all rows."""
    rows = []
    for case in ladder_cases(names):
        if progress is not None:
            progress(f"{case.name} ...")
        row = run_case(case, quick=quick)
        if progress is not None:
            progress(
                f"{case.name}: {row['events']} events, median "
                f"{row['wall_s']:.3f} s [{row['wall_s_min']:.3f}, "
                f"{row['wall_s_max']:.3f}] over {TRIALS} trials"
            )
        rows.append(row)
    return rows


# -- emission ----------------------------------------------------------------


def write_results(rows: List[Dict[str, Any]], out: Path) -> Dict[str, Any]:
    """Write the rows to ``out`` as the ``BENCH_perf.json`` document."""
    doc = {
        "schema": "repro.perf/2",
        "quick": bool(rows) and all(r.get("quick", False) for r in rows),
        "trials": TRIALS,
        "cases": rows,
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc
