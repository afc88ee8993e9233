"""The traced pass: per-layer numbers measured from outside the program.

:class:`LayerTrace` installs three instruments for the duration of one
pass and removes them afterwards; nothing in ``src/`` changes:

* a :class:`repro.perf.StackSampler` over every thread whose samples
  fold into a ``*.self_share`` per layer by the module of the innermost
  frame;
* a :class:`repro.perf.KernelProfiler` handed to every ``Machine``
  built during the pass (through ``Machine(profiler=)``), for the
  kernel-mechanics counts;
* wrappers around named public calls: they count calls that are
  generators driven by the simulator (``Simulator.spawn``,
  ``Topology.wire_stages``, ``MpiRank.isend``) per machine, and time
  the ones that return (``Machine.__init__/run/metrics``,
  ``RunSpec.from_dict/key``, ``JobScheduler.submit``,
  ``ResultCache.get/put``, ``Journal.append``, ``JobStore.append``,
  ``execute_run``).  Timed calls are kept as spans in memory and
  written to a file when the pass ends.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import clock, median, percentile

from repro.perf import KernelProfiler, StackSampler
from repro.perf.sampling import fold_frame

#: Sampling period of the traced pass.
SAMPLE_MS = 2.0

#: Spans kept in memory; later calls are still timed, not stored.
MAX_SPANS = 200_000

#: ``*.self_share`` metric -> module prefixes of the frames it owns.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim.kernel.self_share": (
        "repro.sim.engine", "repro.sim.events", "repro.sim.process",
    ),
    "sim.pipelines.self_share": ("repro.sim.pipelines",),
    "sim.resources.self_share": ("repro.sim.resources",),
    "topology.self_share": ("repro.topology", "repro.fabric"),
    "networks.ib.self_share": ("repro.networks.ib",),
    "networks.elan.self_share": ("repro.networks.elan",),
    "mpi.mvapich.self_share": ("repro.mpi.mvapich",),
    "mpi.qmpi.self_share": ("repro.mpi.qmpi",),
    "mpi.matching.self_share": ("repro.mpi.matching",),
    "mpi.collectives.self_share": ("repro.mpi.collectives",),
    "apps.self_share": ("repro.apps",),
    "telemetry.self_share": ("repro.telemetry",),
    "serve.self_share": ("repro.serve",),
}

#: Leaf modules of a thread parked waiting (socket read, select, lock).
IDLE_MODULES = frozenset(
    {"threading", "selectors", "socket", "socketserver", "queue"}
)


def _owner(module: str) -> Optional[str]:
    for metric, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return metric
    return None


def fold_shares(samples: Dict[str, int]) -> Dict[str, Any]:
    """Self shares per layer from collapsed stacks (innermost frame).

    The base is the samples of busy threads only.
    """
    shares = {metric: 0 for metric in LAYER_MODULES}
    json_samples = 0
    base = 0
    for stack, count in samples.items():
        module = stack.rsplit(";", 1)[-1].split(":", 1)[0]
        if module in IDLE_MODULES:
            continue
        base += count
        if module == "json":
            json_samples += count
        owner = _owner(module)
        if owner is not None:
            shares[owner] += count
    out: Dict[str, Any] = {
        metric: (count / base if base else 0.0)
        for metric, count in shares.items()
    }
    out["serve.json_share"] = json_samples / base if base else 0.0
    out["samples"] = base
    return out


class AllThreadsSampler(StackSampler):
    """A :class:`StackSampler` over every thread but its own.

    Also tracks the peak number of live threads.
    """

    def __init__(self, interval_ms: float = SAMPLE_MS) -> None:
        super().__init__(interval_ms=interval_ms)
        self.threads_peak = 0

    def _loop(self, target_id: int) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.threads_peak = max(self.threads_peak, threading.active_count())
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                stack = fold_frame(frame)
                self.total_samples += 1
                self.samples[stack] = self.samples.get(stack, 0) + 1


class _SimCounts:
    __slots__ = ("spawns", "wire_calls", "wire_stages", "messages", "bytes")

    def __init__(self) -> None:
        self.spawns = 0
        self.wire_calls = 0
        self.wire_stages = 0
        self.messages = 0
        self.bytes = 0


class LayerTrace:
    """Instruments installed for one traced pass (use as a context)."""

    def __init__(self) -> None:
        # Every thread: the campaign engine and the serve daemon run their
        # work on threads of their own.
        self.sampler = AllThreadsSampler()
        #: Machines built during the pass, in build order.
        self.machines: List[Any] = []
        self.profilers: List[KernelProfiler] = []
        self._counts: Dict[int, _SimCounts] = {}
        self.reg_caches: List[Any] = []
        #: name -> list of call durations (seconds).
        self.timings: Dict[str, List[float]] = {}
        self.spans: List[Tuple[str, float, float, int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self.t0 = 0.0
        #: Denominators and extras behind the last :meth:`layer_metrics`.
        self.bases: Dict[str, Any] = {}

    # -- recording ------------------------------------------------------------

    def _record(self, name: str, t0: float, t1: float) -> None:
        with self._lock:
            self.timings.setdefault(name, []).append(t1 - t0)
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, t0, t1, threading.get_ident()))

    def counts_for(self, sim: Any) -> _SimCounts:
        counts = self._counts.get(id(sim))
        if counts is None:
            counts = self._counts[id(sim)] = _SimCounts()
        return counts

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _timed(self, owner: Any, name: str, label: str) -> None:
        original = owner.__dict__[name]
        record = self._record

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record(label, t0, clock())

        self._patch(owner, name, wrapper)

    def install(self) -> "LayerTrace":
        from repro.campaign import cache, journal, scheduler, spec
        from repro.mpi import api, machine
        from repro.networks.ib import memreg
        from repro.sim import engine
        from repro.topology import base

        trace = self
        Machine = machine.Machine
        init = Machine.__dict__["__init__"]

        def machine_init(self: Any, *args: Any, **kwargs: Any) -> None:
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = KernelProfiler(allocations=False)
            t0 = clock()
            init(self, *args, **kwargs)
            trace._record("Machine.__init__", t0, clock())
            trace.machines.append(self)
            trace.profilers.append(kwargs["profiler"])
            trace.counts_for(self.sim)

        self._patch(Machine, "__init__", machine_init)
        self._timed(Machine, "run", "Machine.run")
        self._timed(Machine, "metrics", "Machine.metrics")

        spawn = engine.Simulator.__dict__["spawn"]

        def counted_spawn(self: Any, *args: Any, **kwargs: Any) -> Any:
            trace.counts_for(self).spawns += 1
            return spawn(self, *args, **kwargs)

        self._patch(engine.Simulator, "spawn", counted_spawn)

        wire = base.Topology.__dict__["wire_stages"]

        def counted_wire(self: Any, src: int, dst: int) -> Any:
            stages = wire(self, src, dst)
            counts = trace.counts_for(self.sim)
            counts.wire_calls += 1
            counts.wire_stages += len(stages)
            return stages

        self._patch(base.Topology, "wire_stages", counted_wire)

        isend = api.MpiRank.__dict__["isend"]

        def counted_isend(self: Any, dest: int, size: int, *args: Any, **kwargs: Any):
            counts = trace.counts_for(self.ctx.sim)
            counts.messages += 1
            counts.bytes += size
            return (yield from isend(self, dest, size, *args, **kwargs))

        self._patch(api.MpiRank, "isend", counted_isend)

        reg_init = memreg.RegistrationCache.__dict__["__init__"]

        def reg_cache_init(self: Any, *args: Any, **kwargs: Any) -> None:
            reg_init(self, *args, **kwargs)
            trace.reg_caches.append(self)

        self._patch(memreg.RegistrationCache, "__init__", reg_cache_init)

        from_dict = spec.RunSpec.__dict__["from_dict"].__func__
        record = self._record

        def timed_from_dict(cls: Any, data: Any) -> Any:
            t0 = clock()
            try:
                return from_dict(cls, data)
            finally:
                record("RunSpec.from_dict", t0, clock())

        self._patch(spec.RunSpec, "from_dict", classmethod(timed_from_dict))
        key_get = spec.RunSpec.__dict__["key"].fget

        def timed_key(self: Any) -> str:
            t0 = clock()
            try:
                return key_get(self)
            finally:
                record("RunSpec.key", t0, clock())

        self._patch(spec.RunSpec, "key", property(timed_key))
        self._timed(cache.ResultCache, "get", "ResultCache.get")
        self._timed(cache.ResultCache, "put", "ResultCache.put")
        self._timed(journal.Journal, "append", "Journal.append")
        self._timed(scheduler.JobStore, "append", "JobStore.append")

        # Queue delay: from the submit that scheduled a run to the start
        # of its execute_run (the name the scheduler module binds).
        submit = scheduler.JobScheduler.__dict__["submit"]
        execute_run = scheduler.__dict__["execute_run"]
        submitted: Dict[str, float] = {}

        def timed_submit(self: Any, spec_: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            sub = submit(self, spec_, *args, **kwargs)
            record("JobScheduler.submit", t0, clock())
            if sub.source == "scheduled":
                submitted[sub.job.key] = t0
            return sub

        def timed_execute_run(spec_: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            queued = submitted.pop(spec_.key, None)
            if queued is not None:
                record("queue_delay", queued, t0)
            try:
                return execute_run(spec_, *args, **kwargs)
            finally:
                record("execute_run", t0, clock())

        self._patch(scheduler.JobScheduler, "submit", timed_submit)
        self._patch(scheduler, "execute_run", timed_execute_run)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        self.t0 = clock()
        self.sampler.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.sampler.stop()
        self.uninstall()

    # -- reporting ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines (name, start, end, thread)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, t0, t1, tid in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": t0 - self.t0,
                     "end": t1 - self.t0, "thread": tid}
                ) + "\n")

    def _ms(self, name: str) -> float:
        values = self.timings.get(name)
        return 1e3 * median(values) if values else 0.0

    def layer_metrics(self, first_machines: Optional[int] = None) -> Dict[str, Any]:
        """Every per-layer metric this pass can give.

        ``first_machines`` limits the simulator counts to the machines
        built first (the deterministic prefix of a serve run).
        """
        n = len(self.machines) if first_machines is None else first_machines
        machines = self.machines[:n]
        profilers = self.profilers[:n]
        counts = [self.counts_for(m.sim) for m in machines]
        events = sum(p.events for p in profilers)
        loop_s = sum(p.loop_wall_s for p in profilers)
        messages = sum(c.messages for c in counts)
        wire_calls = sum(c.wire_calls for c in counts)
        reg_hits = sum(rc.stats()[0] for rc in self.reg_caches)
        reg_lookups = sum(rc.stats()[0] + rc.stats()[1] for rc in self.reg_caches)
        submits = self.timings.get("JobScheduler.submit", [])
        disk_gets = len(self.timings.get("ResultCache.get", []))
        classes: Dict[str, float] = {}
        for p in profilers:
            for name, stats in p.by_process_class.items():
                classes[name] = classes.get(name, 0.0) + stats.wall_s
        out: Dict[str, Any] = {
            "sim.events": events,
            "sim.events_per_msg": events / messages if messages else 0.0,
            "sim.spawns_per_msg": (
                sum(c.spawns for c in counts) / messages if messages else 0.0
            ),
            "sim.heap_pushes": sum(p.heap_pushes for p in profilers),
            "sim.resumptions": sum(p.resumptions for p in profilers),
            "sim.host_us_per_event": 1e6 * loop_s / events if events else 0.0,
            "topology.wire_stages.calls": wire_calls,
            "topology.stages_per_msg": (
                sum(c.wire_stages for c in counts) / wire_calls
                if wire_calls else 0.0
            ),
            "networks.ib.reg_hit_ratio": (
                reg_hits / reg_lookups if reg_lookups else 0.0
            ),
            "mpi.messages": messages,
            "mpi.bytes": sum(c.bytes for c in counts),
            "mpi.machine_build_s": (
                median(self.timings["Machine.__init__"])
                if self.timings.get("Machine.__init__") else 0.0
            ),
            "telemetry.snapshot_ms": self._ms("Machine.metrics"),
            "campaign.key_us": 1e3 * self._ms("RunSpec.key"),
            "campaign.submit_p50_us": (
                1e6 * percentile(submits, 50) if submits else 0.0
            ),
            "campaign.submit_p99_us": (
                1e6 * percentile(submits, 99) if submits else 0.0
            ),
            "campaign.memory_hit_ratio": (
                max(0, len(submits) - disk_gets) / len(submits)
                if submits else 0.0
            ),
            "campaign.cache_put_ms": self._ms("ResultCache.put"),
            "campaign.journal_append_ms": self._ms("Journal.append"),
            "campaign.jobstore_append_ms": self._ms("JobStore.append"),
            "campaign.queue_delay_ms": self._ms("queue_delay"),
            "campaign.execute_run_ms": self._ms("execute_run"),
        }
        out.update(
            {k: v for k, v in fold_shares(self.sampler.samples).items()
             if k != "samples"}
        )
        leaves: Dict[str, int] = {}
        for stack, count in self.sampler.samples.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        self.bases = {
            "samples": sum(self.sampler.samples.values()),
            "top_leaves": sorted(leaves.items(), key=lambda kv: -kv[1])[:12],
            "reg_lookups": reg_lookups,
            "submits": len(submits),
            "machines": len(machines),
            "process_class_wall_s": {
                k: round(v, 4) for k, v in sorted(classes.items())
            },
        }
        return out


def timed_noop_runs(shapes: List[Dict[str, Any]]) -> float:
    """Median wall time of ``Machine.run`` on a program that returns at
    once: MPI init plus the start-up barrier, per machine shape."""
    from repro.mpi import Machine

    def noop(api: Any):
        return None
        yield  # pragma: no cover - makes this a generator

    times: List[float] = []
    for shape in shapes:
        machine = Machine(
            shape["network"], shape["nodes"], topology=shape.get("topology")
        )
        t0 = clock()
        machine.run(noop)
        times.append(clock() - t0)
    return median(times)
