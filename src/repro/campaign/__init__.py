"""Parallel, cached, resumable experiment campaigns.

The campaign engine turns the package's deterministic simulator into a
batch facility: declare a sweep once (:class:`CampaignSpec` or a
declarative :class:`~repro.core.study.ScalingStudy`), and the
:class:`CampaignEngine` executes it across a worker pool, memoizes every
run in a content-addressed disk cache keyed on spec + package version
the moment it completes, so interrupted campaigns resume where they
stopped, and journals completions to JSONL.  Parallel results are
bit-identical to serial ones.

Quickstart::

    from repro.campaign import CampaignEngine, CampaignSpec

    spec = CampaignSpec(
        name="pingpong-sizes",
        base={"app": "pingpong", "nodes": 2},
        grid={"network": ["ib", "elan"], "app_args.size": [0, 1024, 65536]},
    )
    engine = CampaignEngine(root=".repro-campaign", workers=4)
    result = engine.run(spec)
    print(result.summary())          # hit rate, wall time, errors
    print(result.values())           # one scalar per run, in order

See the ``repro-campaign`` console script for file-driven campaigns.
"""

from .adapters import run_study, study_spec
from .cache import ResultCache
from .chaos import ChaosCell, ChaosResult, ChaosStudy, default_kill_link
from .engine import DEFAULT_ROOT, CampaignEngine, CampaignResult, resolve_workers
from .journal import Journal
from .programs import APPS, build_program
from .runner import execute_run, scalar_value
from .scheduler import Job, JobScheduler, JobStore, Submission
from .spec import CampaignSpec, RunSpec, study_runspecs

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "Job",
    "JobScheduler",
    "JobStore",
    "Submission",
    "ChaosCell",
    "ChaosResult",
    "ChaosStudy",
    "default_kill_link",
    "CampaignEngine",
    "CampaignResult",
    "ResultCache",
    "Journal",
    "APPS",
    "build_program",
    "execute_run",
    "scalar_value",
    "run_study",
    "study_spec",
    "study_runspecs",
    "resolve_workers",
    "DEFAULT_ROOT",
]
