"""The farm scheduler: shard jobs over worker processes, survive failures.

Design (one supervisor, N persistent workers):

- Each worker is a forked process looping over a private duplex pipe:
  receive a job envelope, run :func:`repro.farm.worker.execute_job`,
  send the record back.  Workers are *sharded* -- the supervisor hands
  the next pending job to the first idle worker, so fast jobs drain
  quickly and one slow shard cannot starve the rest.
- Every dispatch carries the scheduler's wall-clock **deadline**.  A
  worker that blows it is killed and respawned; the job is retried (the
  hang may be load noise) until the attempt cap, then recorded as a
  timeout.  The in-machine ``max_steps`` guard -- the same one
  ``mips-sim --max-steps`` exposes -- bounds runaway *guest* programs
  from the inside, so the wall deadline only has to catch pathological
  host behaviour.
- A worker that **crashes** (non-zero exit, killed, pipe EOF) loses
  only its in-flight job: the supervisor records the crash, respawns
  the worker, and retries the job with capped exponential backoff.
  An idle worker found dead when handed its next job is a crash too,
  but that job never reached it, so it is re-queued without spending
  an attempt.
- ``--jobs 1`` runs every job once, in-process, over the identical
  :func:`~repro.farm.worker.execute_job` path.  When the pool is
  unavailable (a sandbox that forbids forking), the scheduler
  **degrades** to that serial path for the jobs the pool did not
  finish, so results are the same bytes either way.

Results are returned in *submission order* regardless of completion
order; completion-order streaming happens through the optional
:class:`~repro.farm.store.ResultStore`, whose aggregation is
order-independent.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .job import Job
from .worker import crash_record, execute_job, strip_payload, wall_timeout_record

#: default per-job wall-clock budget (generous: free_cycles runs minutes)
DEFAULT_TIMEOUT_S = 600.0
#: default attempt cap (first try + retries)
DEFAULT_MAX_ATTEMPTS = 3
#: exponential backoff before a retry: base * 2**(attempt-1), capped
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 4.0


def _backoff(attempt: int) -> float:
    return min(BACKOFF_BASE_S * (2 ** (attempt - 1)), BACKOFF_CAP_S)


def _pick_context():
    """Prefer fork (cheap, inherits warmed modules); fall back gracefully."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(conn) -> None:  # pragma: no cover - runs in child processes
    """The worker loop: jobs in, records out, until told to stop."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _tag, index, attempt, job_dict = message
        record = execute_job(job_dict, attempt=attempt)
        try:
            conn.send((index, attempt, record))
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Pending:
    index: int
    job: Job
    attempt: int = 1
    ready_at: float = 0.0


@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    current: Optional[_Pending] = None
    deadline: float = 0.0

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(1.0)


@dataclass
class FarmReport:
    """What one scheduler run did, beyond the records themselves.

    ``crashes`` and ``timeouts`` count *occurrences* (every worker death
    and every wall-deadline kill), not final statuses -- a job that hung
    once and succeeded on retry still shows up here.  Guest-level
    timeouts (the in-machine step budget) are job results, visible in
    the records, not farm interventions.
    """

    records: List[Dict[str, Any]]
    submitted: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    degraded_serial: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r["status"] == "ok")


class Scheduler:
    """Batch executor over a pool of worker processes.

    ``jobs == 1`` runs in-process; ``timeout_s`` and ``max_attempts``
    bound every pooled job's wall time and attempts.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        store=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.max_attempts = max(1, max_attempts)
        self.store = store
        self._ctx = None

    # -- public API --------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[Dict[str, Any]]:
        """Execute every job; records come back in submission order."""
        return self.run_report(jobs).records

    def run_report(self, jobs: Sequence[Job]) -> FarmReport:
        started = time.monotonic()
        jobs = list(jobs)
        report = FarmReport(records=[], submitted=len(jobs))
        if not jobs:
            report.wall_s = time.monotonic() - started
            return report
        results: Dict[int, Dict[str, Any]] = {}
        items = list(enumerate(jobs))
        if self.jobs == 1:
            report.degraded_serial = True
            self._run_serial(items, results)
        else:
            try:
                self._run_pool(items, results, report)
            except OSError as exc:
                # the environment refused to give us processes: degrade,
                # running only the jobs the pool did not finish
                print(
                    f"repro.farm: worker pool unavailable ({exc}); "
                    "falling back to in-process serial execution",
                    file=sys.stderr,
                )
                report.degraded_serial = True
                unfinished = [(i, job) for i, job in items if i not in results]
                self._run_serial(unfinished, results)
        report.records = [results[i] for i in range(len(jobs))]
        report.wall_s = time.monotonic() - started
        return report

    # -- shared plumbing ---------------------------------------------------

    def _finalize(self, results: Dict[int, Dict[str, Any]], pending: _Pending, record) -> None:
        record = strip_payload(record) if record.get("payload") is None else dict(record)
        record["index"] = pending.index
        record["attempts"] = pending.attempt
        record["job_key"] = pending.job.key
        results[pending.index] = record
        if self.store is not None:
            self.store.append(record)

    # -- serial fallback ---------------------------------------------------

    def _run_serial(
        self,
        items: Sequence[Tuple[int, Job]],
        results: Dict[int, Dict[str, Any]],
    ) -> None:
        # in-process execution never yields a retryable record: only the
        # pool's crash and wall-timeout records are retryable
        for index, job in items:
            self._finalize(results, _Pending(index, job), execute_job(job.to_dict()))

    # -- the pool ----------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        return _WorkerHandle(process=process, conn=parent_conn)

    def _run_pool(
        self,
        items: Sequence[Tuple[int, Job]],
        results: Dict[int, Dict[str, Any]],
        report: FarmReport,
    ) -> None:
        from multiprocessing.connection import wait as conn_wait

        self._ctx = _pick_context()
        pending: deque = deque(_Pending(i, job) for i, job in items)
        target = len(items)
        idle: List[_WorkerHandle] = []
        busy: List[_WorkerHandle] = []

        def requeue_or_finalize(pending_job: _Pending, record) -> None:
            if record.get("retryable") and pending_job.attempt < self.max_attempts:
                report.retries += 1
                delay = _backoff(pending_job.attempt)
                pending.append(
                    _Pending(
                        pending_job.index,
                        pending_job.job,
                        pending_job.attempt + 1,
                        time.monotonic() + delay,
                    )
                )
            else:
                self._finalize(results, pending_job, record)

        try:
            while len(results) < target:
                now = time.monotonic()

                # hand ready work to idle workers, spawning up to N
                ready = [p for p in pending if p.ready_at <= now]
                while ready and (idle or len(idle) + len(busy) < self.jobs):
                    reused = bool(idle)
                    worker = idle.pop() if reused else self._spawn_worker()
                    item = ready[0]
                    try:
                        worker.conn.send(("job", item.index, item.attempt, item.job.to_dict()))
                    except OSError:
                        worker.kill()
                        if not reused:
                            raise  # a freshly forked worker cannot take work
                        # the idle worker died since its last job (e.g.
                        # OOM-killed); the job stays queued, attempt unspent
                        report.crashes += 1
                        continue
                    ready.pop(0)
                    pending.remove(item)
                    worker.current = item
                    worker.deadline = now + self.timeout_s
                    busy.append(worker)

                if not busy:
                    # nothing in flight: we must be waiting out a backoff
                    next_ready = min(p.ready_at for p in pending)
                    time.sleep(max(0.0, min(next_ready - time.monotonic(), 0.5)))
                    continue

                # wait for a result, a death, or the nearest deadline
                horizon = min(w.deadline for w in busy) - time.monotonic()
                readable = conn_wait([w.conn for w in busy], timeout=max(0.0, min(horizon, 0.5)))

                for worker in [w for w in busy if w.conn in readable]:
                    item = worker.current
                    try:
                        _index, _attempt, record = worker.conn.recv()
                    except (EOFError, OSError):
                        # the worker died mid-job: kill, count, retry
                        report.crashes += 1
                        worker.kill()
                        busy.remove(worker)
                        requeue_or_finalize(
                            item,
                            crash_record(
                                item.job.to_dict(),
                                item.attempt,
                                f"worker exited with code {worker.process.exitcode}",
                            ),
                        )
                        continue
                    worker.current = None
                    busy.remove(worker)
                    idle.append(worker)
                    requeue_or_finalize(item, record)

                # enforce deadlines on whoever is still busy
                now = time.monotonic()
                for worker in [w for w in busy if w.deadline <= now]:
                    item = worker.current
                    report.timeouts += 1
                    worker.kill()
                    busy.remove(worker)
                    requeue_or_finalize(
                        item,
                        wall_timeout_record(item.job.to_dict(), item.attempt, self.timeout_s),
                    )
        finally:
            for worker in idle:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for worker in idle + busy:
                worker.kill()
            for worker in idle + busy:
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.join(1.0)
