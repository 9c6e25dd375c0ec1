"""``repro.farm`` -- sharded, fault-tolerant batch simulation service.

The simulator got ~6x faster (the threaded-code fast path); this
subsystem makes the *orchestration* scale to match, the same way the
paper's free memory cycles export idle bandwidth: idle CPU cores run
jobs the hot path would otherwise serialize.

Pieces:

- :class:`~repro.farm.job.Job` -- a pure-data job spec (corpus
  workload, experiment or fuzz batch) with a stable content key.
- :class:`~repro.farm.scheduler.Scheduler` -- shards jobs over N
  worker processes with one wall deadline and attempt cap for every
  job, crash recovery, capped exponential backoff, and graceful
  degradation to in-process serial execution when the pool is
  unavailable.
- :class:`~repro.farm.store.ResultStore` -- streams JSON-lines result
  records and aggregates them deterministically regardless of
  completion order.

Entry points: ``mips-farm run`` / ``mips-farm status`` on the command
line, ``mips-experiments --jobs N`` for the paper's evaluation,
``mips-fuzz run --jobs N`` for fuzz batches, and ``mips-prof
cycles|claims|corpus --jobs N`` for the deterministic gates and
profiles.
"""

from .job import (
    Job,
    experiment_jobs,
    workload_jobs,
)
from .scheduler import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_TIMEOUT_S,
    FarmReport,
    Scheduler,
)
from .store import ResultStore, aggregate, render_summary
from .worker import execute_job

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_TIMEOUT_S",
    "FarmReport",
    "Job",
    "ResultStore",
    "Scheduler",
    "aggregate",
    "execute_job",
    "experiment_jobs",
    "render_summary",
    "workload_jobs",
]
