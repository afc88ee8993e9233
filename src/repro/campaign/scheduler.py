"""Async job scheduling over the campaign result cache.

This module is the enabling refactor behind ``repro-serve``: the
run-to-completion loop that used to live inside
:class:`~.engine.CampaignEngine` is restated as an asynchronous
:class:`JobScheduler` that both the batch CLI and the long-running
daemon drive through one code path.

A submitted :class:`~.spec.RunSpec` resolves in three tiers:

1. **cache** — a content-addressed record from any earlier run is
   returned immediately, with the JSON text the cache stored for it
   (optionally via a small in-memory LRU so a hot query-serving loop
   never touches the disk);
2. **coalesce** — an identical spec already in flight joins the
   existing :class:`Job` instead of executing twice;
3. **schedule** — a fresh :class:`Job` is dispatched onto the worker
   pool (or the serial worker thread) with the engine's historical
   timeout / retry-with-backoff / quarantine semantics.

Every successful run is cached as it completes, so the cache is the one
store that answers a repeat; the journal, the quarantine journal and
the job store below are logs that no repeat is answered from.

Every job transition is appended to a :class:`JobStore` — a JSONL log
that doubles as the per-job progress event stream.  Given a durable
store path, a restarted scheduler reloads terminal jobs for queries and
re-dispatches the in-flight tail, which is what lets a killed
``repro-serve`` daemon resume its backlog.  The simulator itself is
deterministic per seed, so records are bit-identical whether a job ran
serially, on a pool worker, or in a previous daemon incarnation.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .cache import ResultCache
from .journal import Journal
from .runner import execute_run
from .spec import RunSpec

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
QUARANTINED = "quarantined"

#: States a job never leaves.
TERMINAL_STATES = (DONE, QUARANTINED)

#: A cache answer: the record and its JSON text as the disk cache
#: stores it (``json.dumps(record, sort_keys=True)``).
Cached = Tuple[Dict[str, Any], str]


def _pool_context():
    # fork is much cheaper than spawn and available everywhere we run
    # (Linux CI and dev boxes); fall back gracefully elsewhere.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _prewarm_noop() -> None:
    """Picklable no-op used to pre-spawn pool workers at daemon start."""


class Job:
    """One scheduled execution of a :class:`~.spec.RunSpec`.

    Carries the spec, the retry tally, the final record once terminal,
    and the transition/event history that ``GET /v1/jobs/<id>/events``
    streams as JSONL.
    """

    __slots__ = (
        "id", "spec", "key", "label", "state", "attempts",
        "lifecycle", "record", "events",
    )

    def __init__(self, job_id: str, spec: RunSpec, lifecycle: bool) -> None:
        self.id = job_id
        self.spec = spec
        self.key = spec.key
        self.label = spec.label()
        self.state = PENDING
        #: Failed executions so far (retry N is attempt N+1).
        self.attempts = 0
        self.lifecycle = lifecycle
        #: The final journal record, set when the job turns terminal.
        self.record: Optional[Dict[str, Any]] = None
        #: Transition history, oldest first (JSONL-ready dicts).
        self.events: List[Dict[str, Any]] = []

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_record: bool = True) -> Dict[str, Any]:
        """JSON-ready job view (the ``GET /v1/jobs/<id>`` payload)."""
        out: Dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "label": self.label,
            "state": self.state,
            "attempts": self.attempts,
            "lifecycle": self.lifecycle,
            "spec": self.spec.to_dict(),
            "events": list(self.events),
        }
        if include_record and self.record is not None:
            out["record"] = self.record
        return out


class Submission:
    """Outcome of one :meth:`JobScheduler.submit` call.

    Exactly one of :attr:`record` (the cache answered) or :attr:`job`
    (scheduled or coalesced) is set; :attr:`source` names the tier:
    ``cache``, ``coalesced`` or ``scheduled``.  A cache answer also
    carries :attr:`text`, the record's stored JSON text
    (``json.dumps(record, sort_keys=True)``), so a server can send it
    without encoding the record again.
    """

    __slots__ = ("source", "record", "text", "job")

    def __init__(
        self,
        source: str,
        record: Optional[Dict[str, Any]] = None,
        text: Optional[str] = None,
        job: Optional[Job] = None,
    ) -> None:
        self.source = source
        self.record = record
        self.text = text
        self.job = job

    @property
    def hit(self) -> bool:
        return self.record is not None


class JobStore:
    """Append-only JSONL log of job transitions (or in-memory when
    ``path`` is ``None``).

    Each line is one event: ``submitted`` carries the spec, terminal
    events carry the final record.  :meth:`load` replays the log into
    per-job folds so a restarted scheduler recovers both its backlog
    (non-terminal jobs) and its answer history (terminal jobs).
    """

    def __init__(self, path=None) -> None:
        self.path = Path(path) if path is not None else None

    def append(self, line: Dict[str, Any]) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(line, sort_keys=True)
        with self.path.open("a") as fh:
            fh.write(text + "\n")
            fh.flush()

    def load(self) -> List[Dict[str, Any]]:
        """All well-formed lines, oldest first; torn tails skipped."""
        if self.path is None:
            return []
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return []
        out: List[Dict[str, Any]] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue  # torn final line: the daemon died mid-write
            if isinstance(data, dict) and data.get("id"):
                out.append(data)
        return out

    def clear(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)


def _hist_summary(values: List[float]) -> Dict[str, float]:
    """count/mean/max summary matching the metric histogram export."""
    if not values:
        return {"count": 0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": round(sum(values) / len(values), 6),
        "max": round(max(values), 6),
    }


def scheduler_status(root) -> Dict[str, Any]:
    """The ``scheduler`` status block, folded from durable state.

    Works without a live scheduler: replays the campaign root's
    ``jobs.jsonl`` transitions for per-state job counts and queue-delay
    / wall-time summaries, and the journal for the cache-hit ratio
    (``reused`` lines over all lines).  Only batch runs write ``reused``
    lines, so that ratio covers batch runs only; a serve daemon reports
    its own beside this block.  ``repro-campaign status --json`` and the
    serve daemon's ``/v1/status`` both embed this (the daemon's live
    metric histograms carry the same numbers for its own lifetime).
    """
    store = JobStore(Path(root) / "jobs.jsonl")
    state_of: Dict[str, str] = {}
    prev_t: Dict[str, float] = {}
    first_t: Dict[str, float] = {}
    delays: List[float] = []
    walls: List[float] = []
    turnarounds: List[float] = []
    for line in store.load():
        job_id = line["id"]
        state_of[job_id] = line.get("state", PENDING)
        t = line.get("t")
        if not isinstance(t, (int, float)):
            continue
        first_t.setdefault(job_id, t)
        if line.get("event") == "dispatched" and job_id in prev_t:
            delays.append(max(0.0, t - prev_t[job_id]))
        if line.get("state") in TERMINAL_STATES:
            record = line.get("record")
            if isinstance(record, dict) and "wall_s" in record:
                walls.append(float(record["wall_s"]))
            turnarounds.append(max(0.0, t - first_t[job_id]))
        prev_t[job_id] = t
    counts = {PENDING: 0, RUNNING: 0, DONE: 0, QUARANTINED: 0}
    for state in state_of.values():
        counts[state] = counts.get(state, 0) + 1
    entries = list(Journal(Path(root) / "journal.jsonl").entries())
    reused = sum(1 for r in entries if r.get("reused"))
    return {
        "jobs": counts,
        "cache_hit_ratio": (
            round(reused / len(entries), 4) if entries else 0.0
        ),
        "queue_delay_s": _hist_summary(delays),
        "job_wall_s": _hist_summary(walls),
        "turnaround_s": _hist_summary(turnarounds),
    }


class JobScheduler:
    """Cache-aware async executor of RunSpecs with durable job state.

    The batch engine builds one per invocation (in-memory store), the
    serve daemon builds one for its whole lifetime (durable store).
    Thread-safe: ``submit``/``wait``/``job`` may be called from any
    number of threads (the HTTP handler pool).
    """

    def __init__(
        self,
        cache: ResultCache,
        journal: Journal,
        quarantine: Journal,
        store: Optional[JobStore] = None,
        workers: int = 1,
        trace: bool = False,
        timeout_s: Optional[float] = None,
        max_events: Optional[int] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.25,
        lifecycle: bool = False,
        echo: Optional[Callable[[str], None]] = None,
        journal_reused: bool = True,
        memory_cache: int = 0,
        metrics: Optional[Any] = None,
        profile: bool = False,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s cannot be negative")
        if memory_cache < 0:
            raise ConfigurationError("memory_cache cannot be negative")
        self.cache = cache
        self.journal = journal
        self.quarantine = quarantine
        self.store = store if store is not None else JobStore(None)
        self.workers = workers
        self.trace = trace
        self.timeout_s = timeout_s
        self.max_events = max_events
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.lifecycle = lifecycle
        self.echo = echo
        #: Append ``reused: true`` journal lines for cache answers
        #: (the batch engine's historical behaviour; the daemon disables
        #: it so a hot cache-hit loop never writes the journal).
        self.journal_reused = journal_reused
        #: In-memory LRU capacity over cache records (0 disables); each
        #: entry keeps the record beside its stored text.
        self.memory_cache = memory_cache
        self._memory: "OrderedDict[str, Cached]" = OrderedDict()
        #: Optional :class:`~repro.telemetry.registry.MetricsRegistry`;
        #: when present the scheduler feeds per-job timing histograms
        #: (``scheduler.jobs.queue_delay_s``, ``scheduler.jobs.wall_s``)
        #: — the serve daemon passes its own registry here.
        self.metrics = metrics
        #: Attach a kernel profiler to every executed run (adds a
        #: ``perf`` summary to records; see :func:`~.runner.execute_run`
        #: for why this must stay off for cache-pure batch runs).
        self.profile = profile

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        #: In-flight (non-terminal) jobs by spec key — the coalesce map.
        self._inflight: Dict[str, Job] = {}
        self._next_id = 1
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pool_dead = False
        self._serial_queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._serial_thread: Optional[threading.Thread] = None
        self._timers: List[threading.Timer] = []
        self._closed = False
        #: Lifetime tallies (exported by the daemon's /v1/status).
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "scheduled": 0,
            "executed": 0,
            "retried_ok": 0,
            "quarantined": 0,
            "resumed": 0,
        }
        self._restore()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def at(cls, root, **kwargs) -> "JobScheduler":
        """A scheduler owning the standard campaign-root file layout,
        with a durable job store."""
        root = Path(root)
        return cls(
            cache=ResultCache(root / "cache"),
            journal=Journal(root / "journal.jsonl"),
            quarantine=Journal(root / "quarantine.jsonl"),
            store=JobStore(root / "jobs.jsonl"),
            **kwargs,
        )

    def _restore(self) -> None:
        """Replay the durable store: keep answers, re-queue the backlog."""
        folded: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        for line in self.store.load():
            job_id = line["id"]
            fold = folded.get(job_id)
            if fold is None:
                fold = folded[job_id] = {"events": []}
                order.append(job_id)
            if "spec" in line:
                fold["spec"] = line["spec"]
            if "lifecycle" in line:
                fold["lifecycle"] = line["lifecycle"]
            if "record" in line:
                fold["record"] = line["record"]
            event = dict(line)
            event.pop("record", None)
            fold["events"].append(event)
            fold["state"] = line.get("state", PENDING)
            fold["attempts"] = line.get("attempts", fold.get("attempts", 0))
        for job_id in order:
            fold = folded[job_id]
            spec_dict = fold.get("spec")
            if spec_dict is None:
                continue  # header line lost to a torn write: unrecoverable
            try:
                spec = RunSpec.from_dict(spec_dict)
            except (ConfigurationError, KeyError, TypeError, ValueError):
                continue  # spec predates a model change; drop it
            job = Job(job_id, spec, bool(fold.get("lifecycle", False)))
            job.events = fold["events"]
            job.attempts = int(fold.get("attempts", 0))
            state = fold.get("state", PENDING)
            if state in TERMINAL_STATES:
                job.state = state
                job.record = fold.get("record")
            else:
                # Non-terminal at the time the store went quiet: the
                # daemon died with this job in flight.  Requeue it.
                job.state = PENDING
                self._inflight[job.key] = job
                self.stats["resumed"] += 1
            self._jobs[job_id] = job
            try:
                self._next_id = max(self._next_id, int(job_id[1:]) + 1)
            except ValueError:
                pass

    # -- plumbing ------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self.echo is not None:
            self.echo(message)

    def _event(self, job: Job, event: str, **fields: Any) -> None:
        """Record one transition on the job and in the durable store."""
        line: Dict[str, Any] = {
            "id": job.id,
            "seq": len(job.events),
            "event": event,
            "state": job.state,
            "attempts": job.attempts,
            # Host wall time: service metadata, not simulated time.
            "t": round(time.time(), 6),  # repro-lint: disable=RPR001
        }
        record = fields.pop("record", None)
        line.update(fields)
        job.events.append(line)
        stored = dict(line)
        if event == "submitted":
            stored["spec"] = job.spec.to_dict()
            stored["lifecycle"] = job.lifecycle
        if record is not None:
            stored["record"] = record
        self.store.append(stored)
        self._cond.notify_all()

    # -- cache ---------------------------------------------------------------

    def _cached(self, key: str) -> Optional[Cached]:
        if self.memory_cache:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                return hit
        hit = self.cache.load(key)
        if hit is not None:
            self._remember(key, hit)
        return hit

    def _remember(self, key: str, hit: Cached) -> None:
        if not self.memory_cache:
            return
        self._memory[key] = hit
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_cache:
            self._memory.popitem(last=False)

    def cached(self, key: str) -> Optional[Cached]:
        """The cached record for ``key`` and its stored text, or None.

        Looks in the memory LRU, then on disk, under the scheduler lock:
        a lookup reorders the LRU, which :meth:`submit` evicts from.
        """
        with self._lock:
            return self._cached(key)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        force: bool = False,
        lifecycle: Optional[bool] = None,
    ) -> Submission:
        """Resolve one spec: cache, coalesce, or schedule.

        ``force`` skips the cache (a re-simulation whose record then
        replaces the cached one).  ``lifecycle`` overrides the scheduler
        default for this job only (the serve API's per-request
        ``lifecycle`` flag).
        """
        key = spec.key
        with self._lock:
            self.stats["submitted"] += 1
            hit = None if force else self._cached(key)
            if hit is not None:
                record, text = hit
                self.stats["cache_hits"] += 1
                if self.journal_reused:
                    self.journal.append(dict(record, reused=True))
                if self.echo is not None:
                    self.echo(f"hit  {record.get('label', key)}")
                return Submission("cache", record, text)
            job = self._inflight.get(key)
            if job is not None:
                self.stats["coalesced"] += 1
                return Submission("coalesced", job=job)
            job = Job(
                f"j{self._next_id}",
                spec,
                self.lifecycle if lifecycle is None else lifecycle,
            )
            self._next_id += 1
            self._jobs[job.id] = job
            self._inflight[key] = job
            self.stats["scheduled"] += 1
            self._event(job, "submitted")
            self._dispatch(job)
            return Submission("scheduled", job=job)

    def start(self) -> None:
        """Dispatch any backlog restored from a durable store.

        Fresh submissions dispatch themselves, so every job still
        ``pending`` here was in flight when a previous incarnation of
        the store went quiet.
        """
        with self._lock:
            backlog = [j for j in self._jobs.values() if j.state == PENDING]
        for job in sorted(backlog, key=lambda j: int(j.id[1:])):
            self._dispatch(job)

    def prewarm(self) -> None:
        """Pre-spawn pool workers so the first miss pays no fork cost."""
        with self._lock:
            executor = self._executor_or_none()
        if executor is not None:
            for _ in range(self.workers):
                executor.submit(_prewarm_noop)

    # -- execution -----------------------------------------------------------

    def _executor_or_none(self) -> Optional[ProcessPoolExecutor]:
        if self.workers <= 1 or self._pool_dead or self._closed:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pool_context()
            )
        return self._executor

    def _dispatch(self, job: Job) -> None:
        """Hand one pending job to the pool (or the serial worker)."""
        with self._lock:
            if self._closed or job.done:
                return
            job.state = RUNNING
            self._event(job, "dispatched")
            if self.metrics is not None and len(job.events) >= 2:
                # Queue delay: from the preceding transition (submitted,
                # or retry_scheduled on a retry) to this dispatch.
                delay = job.events[-1]["t"] - job.events[-2]["t"]
                self.metrics.histogram(
                    "scheduler.jobs.queue_delay_s"
                ).observe(max(0.0, delay))
            executor = self._executor_or_none()
            if executor is not None:
                try:
                    future = executor.submit(
                        execute_run,
                        job.spec,
                        trace=self.trace,
                        timeout_s=self.timeout_s,
                        max_events=self.max_events,
                        lifecycle=job.lifecycle,
                        profile=self.profile,
                    )
                except Exception as exc:  # pool already broken
                    self._pool_failed(exc)
                    self._enqueue_serial(job)
                    return
                future.add_done_callback(
                    lambda fut, job_id=job.id: self._on_future(job_id, fut)
                )
            else:
                self._enqueue_serial(job)

    def _enqueue_serial(self, job: Job) -> None:
        with self._lock:
            if self._serial_thread is None:
                self._serial_thread = threading.Thread(
                    target=self._serial_loop,
                    name="repro-serve-serial",
                    daemon=True,
                )
                self._serial_thread.start()
            self._serial_queue.put(job.id)

    def _serial_loop(self) -> None:
        """The in-process fallback worker: one job at a time, FIFO."""
        while True:
            job_id = self._serial_queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
            if job is None or job.done:
                continue
            record = execute_run(
                job.spec,
                trace=self.trace,
                timeout_s=self.timeout_s,
                max_events=self.max_events,
                lifecycle=job.lifecycle,
                profile=self.profile,
            )
            self._complete(job_id, record)

    def _pool_failed(self, exc: BaseException) -> None:
        """The pool infrastructure died (not a run); go serial."""
        with self._lock:
            if self._pool_dead:
                return
            self._pool_dead = True
            executor, self._executor = self._executor, None
        self._say(
            f"worker pool failed ({type(exc).__name__}: {exc}); "
            f"finishing the remaining runs serially"
        )
        if executor is not None:
            executor.shutdown(wait=False)

    def _on_future(self, job_id: str, future) -> None:
        try:
            record = future.result()
        except Exception as exc:
            # execute_run never raises, so this is pool infrastructure
            # death (BrokenProcessPool & friends): re-run serially.
            self._pool_failed(exc)
            with self._lock:
                job = self._jobs.get(job_id)
            if job is not None and not job.done:
                self._enqueue_serial(job)
            return
        self._complete(job_id, record)

    # -- completion / retry / quarantine -------------------------------------

    def _complete(self, job_id: str, record: Dict[str, Any]) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.done:
                return
            attempt = job.attempts
            if attempt:
                record["retry"] = attempt
            self.stats["executed"] += 1
            ok = record.get("status") == "ok"
            if ok:
                text = self.cache.put(job.key, record)
                self._remember(job.key, (record, text))
                if attempt:
                    self.stats["retried_ok"] += 1
            self.journal.append(record)
            status = "ok  " if ok else "FAIL"
            note = f" retry {attempt}/{self.max_retries}" if attempt else ""
            self._say(
                f"{status} {record.get('label', job.key)} "
                f"({record.get('wall_s', 0.0):.2f}s){note}"
            )
            if ok:
                self._finish(job, DONE, record)
                return
            job.attempts += 1
            if job.attempts <= self.max_retries:
                backoff = self.retry_backoff_s * (2 ** (job.attempts - 1))
                job.state = PENDING
                self._event(
                    job, "retry_scheduled",
                    error=record.get("error"), backoff_s=backoff,
                )
                self._say(
                    f"retrying {record.get('label', job.key)}, "
                    f"attempt {job.attempts}/{self.max_retries}"
                )
                if backoff > 0:
                    timer = threading.Timer(backoff, self._dispatch, (job,))
                    timer.daemon = True
                    self._timers.append(timer)
                    timer.start()
                else:
                    self._dispatch(job)
                return
            self.quarantine.append(record)
            self.stats["quarantined"] += 1
            self._say(f"QUARANTINED {record.get('label', job.key)}")
            self._finish(job, QUARANTINED, record)

    def _finish(self, job: Job, state: str, record: Dict[str, Any]) -> None:
        job.state = state
        job.record = record
        self._inflight.pop(job.key, None)
        self._event(
            job, state,
            status=record.get("status"),
            value=record.get("value"),
            elapsed_us=record.get("elapsed_us"),
            error=record.get("error"),
            record=record,
        )
        if self.metrics is not None:
            self.metrics.histogram("scheduler.jobs.wall_s").observe(
                float(record.get("wall_s", 0.0))
            )
            turnaround = job.events[-1]["t"] - job.events[0]["t"]
            self.metrics.histogram("scheduler.jobs.turnaround_s").observe(
                max(0.0, turnaround)
            )

    # -- queries and synchronization -----------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All known jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: int(j.id[1:]))

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for status endpoints)."""
        out = {PENDING: 0, RUNNING: 0, DONE: 0, QUARANTINED: 0}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
        return out

    def wait(
        self,
        job_ids: Optional[Iterable[str]] = None,
        timeout_s: Optional[float] = None,
    ) -> bool:
        """Block until the named jobs (default: all) are terminal.

        Returns ``False`` on timeout.  Host wall time, naturally — this
        synchronizes the service, not the simulation.
        """
        wanted = None if job_ids is None else list(job_ids)
        deadline = (
            None if timeout_s is None
            else time.monotonic() + timeout_s  # repro-lint: disable=RPR001
        )
        with self._cond:
            while True:
                ids = wanted if wanted is not None else list(self._jobs)
                if all(
                    self._jobs[i].done for i in ids if i in self._jobs
                ):
                    return True
                remaining = 1.0
                if deadline is not None:
                    remaining = deadline - time.monotonic()  # repro-lint: disable=RPR001
                    if remaining <= 0:
                        return False
                self._cond.wait(min(remaining, 1.0))

    def wait_events(self, job_id: str, seen: int, timeout_s: float = 30.0) -> List[Dict[str, Any]]:
        """Events past index ``seen``, blocking briefly for new ones.

        The long-poll primitive behind the JSONL event stream: returns
        as soon as the job grows new events or turns terminal, or after
        ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s  # repro-lint: disable=RPR001
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return []
                if len(job.events) > seen or job.done:
                    return job.events[seen:]
                remaining = deadline - time.monotonic()  # repro-lint: disable=RPR001
                if remaining <= 0:
                    return []
                self._cond.wait(min(remaining, 1.0))

    def close(self, wait: bool = True) -> None:
        """Stop timers, the serial worker and the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            timers, self._timers = self._timers, []
            executor, self._executor = self._executor, None
            serial = self._serial_thread
        for timer in timers:
            timer.cancel()
        if serial is not None:
            self._serial_queue.put(None)
            if wait:
                serial.join(timeout=5.0)
        if executor is not None:
            executor.shutdown(wait=wait)
