"""The campaign engine: cached, parallel, resumable sweep execution.

The engine resolves each :class:`~.spec.RunSpec` in two tiers:

1. **cache** — a content-addressed record from any earlier campaign;
2. **run** — execute on a fresh simulated machine, serially or on a
   :mod:`multiprocessing` worker pool.

The simulator is deterministic per seed, so tier choice and worker
count never change a record's payload — parallel campaigns are
bit-identical to serial ones, and re-running an identical campaign is a
pure cache replay.  Duplicate points are collapsed before execution and
every successful run is cached the moment it completes, so a
half-finished campaign resumes from the cache with no bookkeeping of its
own.  The JSONL journal beside the cache records every completion for
``repro-campaign status``; no answer is read from it.

Execution itself lives in :class:`~.scheduler.JobScheduler`: the engine
builds one per invocation, submits every spec, and waits.  The
``repro-serve`` daemon drives a long-lived scheduler through the same
interface, so batch campaigns and the query service share one
cache/coalesce/retry/quarantine code path.

Robustness: a failing point never takes the campaign down.  Failed runs
are retried up to ``max_retries`` times with exponential backoff; points
that still fail are **quarantined** — their final error record lands in
``quarantine.jsonl`` beside the journal, the remaining grid completes,
and the invocation reports a nonzero error count.  ``timeout_s`` and
``max_events`` bound each run via the simulator watchdog, and if the
worker pool itself dies mid-campaign the engine falls back to executing
the unfinished tail serially.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .cache import ResultCache
from .journal import Journal
from .scheduler import JobScheduler
from .spec import CampaignSpec, RunSpec

#: Default campaign state directory (override with ``root=``).
DEFAULT_ROOT = ".repro-campaign"


def resolve_workers(workers: int) -> int:
    """Normalize a worker count; 0 means one per CPU."""
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ConfigurationError("worker count cannot be negative")
    return workers


@dataclass
class CampaignResult:
    """Outcome of one engine invocation, records in request order."""

    records: List[Dict[str, Any]]
    #: Runs served from the cache (not re-simulated).
    hits: int
    #: Runs actually executed this invocation.
    misses: int
    #: Executed runs that ended in an error record.
    errors: int
    #: Wall-clock time of the whole invocation, seconds.
    wall_s: float
    name: str = ""
    #: Tier tallies: {"cache": n, "run": n}.
    sources: Dict[str, int] = field(default_factory=dict)
    #: Runs that exhausted their retry budget and were quarantined.
    quarantined: int = 0
    #: Failed executions that later succeeded on retry.
    retried_ok: int = 0

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def values(self) -> List[Optional[float]]:
        """The scalar metric of every record, in request order."""
        return [r.get("value") for r in self.records]

    def failed(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("status") != "ok"]

    def summary(self) -> str:
        name = f"campaign {self.name!r}: " if self.name else ""
        text = (
            f"{name}{self.total} runs in {self.wall_s:.2f}s — "
            f"{self.hits} cached ({self.hit_rate * 100.0:.0f}% hit rate), "
            f"{self.misses} executed, {self.errors} errors"
        )
        if self.quarantined:
            text += f" ({self.quarantined} quarantined)"
        if self.retried_ok:
            text += f", {self.retried_ok} recovered on retry"
        return text


class CampaignEngine:
    """Executes RunSpecs with caching, journaling and a worker pool."""

    def __init__(
        self,
        root=DEFAULT_ROOT,
        workers: int = 1,
        trace: bool = False,
        echo: Optional[Callable[[str], None]] = None,
        timeout_s: Optional[float] = None,
        max_events: Optional[int] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.25,
        lifecycle: bool = False,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s cannot be negative")
        self.root = Path(root)
        self.workers = resolve_workers(workers)
        self.trace = trace
        self.echo = echo
        #: Per-run wall-clock budget, armed as the simulator watchdog.
        self.timeout_s = timeout_s
        #: Per-run simulated-event budget (same watchdog).
        self.max_events = max_events
        #: Also collect lifecycle spans + series per run (record gains
        #: deterministic ``blame`` and ``series`` blocks).
        self.lifecycle = lifecycle
        #: Times a failed point is re-executed before quarantine.
        self.max_retries = max_retries
        #: Base of the exponential inter-retry sleep.
        self.retry_backoff_s = retry_backoff_s
        self.cache = ResultCache(self.root / "cache")
        self.journal = Journal(self.root / "journal.jsonl")
        #: Final error records of points that exhausted their retries.
        self.quarantine = Journal(self.root / "quarantine.jsonl")

    def _say(self, message: str) -> None:
        if self.echo is not None:
            self.echo(message)

    def run(self, campaign: CampaignSpec, force: bool = False) -> CampaignResult:
        """Expand and execute one declarative campaign."""
        result = self.run_specs(campaign.expand(), force=force)
        result.name = campaign.name
        return result

    def scheduler(self, journal_reused: bool = True) -> JobScheduler:
        """A :class:`~.scheduler.JobScheduler` with this engine's policy.

        One is built per :meth:`run_specs` invocation (in-memory job
        store); the ``repro-serve`` daemon builds a long-lived durable
        one through the same constructor arguments, which is what keeps
        batch and service execution on one code path.
        """
        return JobScheduler(
            cache=self.cache,
            journal=self.journal,
            quarantine=self.quarantine,
            workers=self.workers,
            trace=self.trace,
            timeout_s=self.timeout_s,
            max_events=self.max_events,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            lifecycle=self.lifecycle,
            echo=self.echo,
            journal_reused=journal_reused,
        )

    def run_specs(
        self, specs: Sequence[RunSpec], force: bool = False
    ) -> CampaignResult:
        """Execute a run list; records come back in request order.

        ``force`` bypasses the cache and re-simulates everything
        (results still land in the cache and journal afterwards).
        """
        # Host wall time, not simulated time: the campaign reports how
        # long *it* took.
        t0 = time.perf_counter()  # repro-lint: disable=RPR001
        specs = list(specs)
        by_key: Dict[str, Dict[str, Any]] = {}
        jobs: Dict[str, Any] = {}
        sources = {"cache": 0, "run": 0}
        scheduler = self.scheduler()
        try:
            for spec in specs:
                key = spec.key
                if key in by_key or key in jobs:
                    continue  # duplicate point: one execution serves all
                sub = scheduler.submit(spec, force=force)
                if sub.record is not None:
                    sources["cache"] += 1
                    by_key[key] = sub.record
                else:
                    # "coalesced" can't happen here (duplicates are
                    # collapsed above), so this job is freshly scheduled.
                    sources["run"] += 1
                    jobs[key] = sub.job
            scheduler.wait([job.id for job in jobs.values()])
            for key, job in jobs.items():
                by_key[key] = job.record
        finally:
            scheduler.close()

        records = [by_key[spec.key] for spec in specs]
        return CampaignResult(
            records=records,
            hits=sources["cache"],
            misses=sources["run"],
            errors=scheduler.stats["quarantined"],
            wall_s=time.perf_counter() - t0,  # repro-lint: disable=RPR001
            sources=sources,
            quarantined=scheduler.stats["quarantined"],
            retried_ok=scheduler.stats["retried_ok"],
        )
