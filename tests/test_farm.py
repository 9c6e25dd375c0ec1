"""The simulation farm: determinism, fault tolerance, degradation.

The invariants under test are the subsystem's contract:

- serial and sharded execution produce identical records (minus
  wall-clock noise), so ``--jobs N`` never changes results;
- worker crashes and hangs are retried and recorded without losing or
  duplicating any job's result, including workers that die while idle;
- guest failures (bus errors, step-budget exhaustion) become
  structured failure records and do not poison the worker;
- a pool the host refuses degrades to in-process serial execution;
- the JSON-lines store aggregates deterministically regardless of
  completion order.

Crashes and hangs come from a fake executor that a test installs in
the scheduler before the pool forks: a job whose spec carries
``probe`` misbehaves on its first attempts, then runs normally.
"""

import json
import multiprocessing.connection
import os
import random
import time

import pytest

from repro.farm import scheduler as scheduler_module
from repro.farm import (
    Job,
    ResultStore,
    Scheduler,
    aggregate,
    experiment_jobs,
    workload_jobs,
)
from repro.farm.store import stable_view
from repro.farm.worker import execute_job
from repro.workloads import CORPUS, EXPECTED_OUTPUT

#: cheap corpus members (tens of thousands of cycles, not millions)
FAST_WORKLOADS = ("scanner", "logic")

#: a store far past the end of the 4M-word physical memory: a bus error
BUS_FAULT_PASCAL = """
program busfault;
var a: array [0..9] of integer;
    i: integer;
begin
  i := 5000000;
  a[i] := 1
end.
"""


@pytest.fixture
def bus_fault_job(monkeypatch):
    monkeypatch.setitem(CORPUS, "busfault", BUS_FAULT_PASCAL)
    (job,) = workload_jobs(["busfault"], max_steps=1_000)
    return job


@pytest.fixture
def probes(monkeypatch):
    """Workers run a probing executor and retry after a short backoff."""

    def probing_execute_job(job, attempt=1):
        probe = job["spec"].get("probe")
        if probe and attempt <= probe["fail_attempts"]:
            if probe["mode"] == "crash":
                os._exit(17)
            time.sleep(60.0)  # a hang: only the wall deadline ends it
        return execute_job(job, attempt)

    monkeypatch.setattr(scheduler_module, "execute_job", probing_execute_job)
    monkeypatch.setattr(scheduler_module, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(scheduler_module, "BACKOFF_CAP_S", 0.05)


def probe_job(mode, fail_attempts):
    """A scanner run that crashes or hangs on its first attempts."""
    return Job(
        kind="workload",
        name="scanner",
        spec={"probe": {"mode": mode, "fail_attempts": fail_attempts}},
    )


class TestJobSpec:
    def test_key_is_stable_and_content_addressed(self):
        a = Job(kind="workload", name="scanner")
        b = Job(kind="workload", name="scanner")
        c = Job(kind="workload", name="scanner", max_steps=999)
        assert a.key == b.key
        assert a.key != c.key

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Job(kind="nonsense", name="x")


class TestSerialExecution:
    def test_workload_record_matches_oracle(self):
        (record,) = Scheduler(jobs=1).run(workload_jobs(["scanner"]))
        assert record["status"] == "ok"
        assert record["output"] == EXPECTED_OUTPUT["scanner"]
        assert record["cycles"] > 0
        assert record["stats"]["words"] == record["words"]
        assert record["fingerprint"]
        assert record["attempts"] == 1

    def test_runaway_job_times_out_with_structured_record(self):
        (record,) = Scheduler(jobs=1).run(workload_jobs(["scanner"], max_steps=1_000))
        assert record["status"] == "timeout"
        assert record["error"]["type"] == "TimeoutError"
        assert "did not halt" in record["error"]["message"]

    def test_bus_error_produces_structured_failure(self, bus_fault_job):
        (record,) = Scheduler(jobs=1).run([bus_fault_job])
        assert record["status"] == "fault"
        assert record["error"]["type"] == "BusError"
        assert record["error"]["cause"] == "BUS_ERROR"
        assert record["error"]["address"] >= 1 << 22

    def test_compile_error_becomes_error_record(self):
        (record,) = Scheduler(jobs=1).run(workload_jobs(["not_a_workload"]))
        assert record["status"] == "error"
        assert record["error"]["type"] == "KeyError"

    def test_unavailable_pool_degrades_to_serial(self, monkeypatch, capsys):
        def refuse(_scheduler):
            raise OSError("fork refused")

        monkeypatch.setattr(Scheduler, "_spawn_worker", refuse)
        jobs = workload_jobs(FAST_WORKLOADS)
        report = Scheduler(jobs=2).run_report(jobs)
        assert report.degraded_serial
        serial = Scheduler(jobs=1).run(jobs)
        assert [stable_view(r) for r in report.records] == [stable_view(r) for r in serial]
        fallback = [
            line
            for line in capsys.readouterr().err.splitlines()
            if "falling back to in-process serial execution" in line
        ]
        assert len(fallback) == 1


class TestShardedExecution:
    def test_parallel_matches_serial_bit_for_bit(self):
        jobs = workload_jobs(FAST_WORKLOADS)
        serial = Scheduler(jobs=1).run(jobs)
        sharded = Scheduler(jobs=2).run(jobs)
        assert [stable_view(r) for r in serial] == [stable_view(r) for r in sharded]
        assert aggregate(serial)["digest"] == aggregate(sharded)["digest"]

    def test_results_come_back_in_submission_order(self):
        names = ["logic", "scanner", "logic", "scanner"]
        jobs = [
            Job(kind="workload", name=name, spec={"shard": i})
            for i, name in enumerate(names)
        ]
        records = Scheduler(jobs=2).run(jobs)
        assert [r["name"] for r in records] == names
        assert [r["index"] for r in records] == [0, 1, 2, 3]

    def test_worker_crash_is_retried_without_loss_or_duplication(self, probes):
        jobs = [probe_job("crash", 1), *workload_jobs(FAST_WORKLOADS)]
        report = Scheduler(jobs=2, max_attempts=3).run_report(jobs)
        assert report.crashes == 1
        assert report.retries == 1
        crashy, *healthy = report.records
        assert crashy["status"] == "ok"
        assert crashy["attempts"] == 2
        assert crashy["output"] == EXPECTED_OUTPUT["scanner"]
        assert [r["status"] for r in healthy] == ["ok"] * len(FAST_WORKLOADS)
        summary = aggregate(report.records)
        assert summary["jobs"] == len(jobs)
        assert summary["duplicates"] == []

    def test_worker_dying_while_idle_duplicates_nothing(self, monkeypatch):
        # every worker serves one job and exits, and the supervisor reads
        # one result per wait, only once its sender is gone, so each
        # pending job is handed to exactly one dead idle worker: that is
        # a worker death, not an unusable pool, and must not re-run
        # finished jobs serially
        def one_job_worker(conn):
            _tag, index, attempt, job = conn.recv()
            conn.send((index, attempt, execute_job(job, attempt=attempt)))

        senders = {}
        real_spawn = Scheduler._spawn_worker

        def spawn_and_remember(scheduler):
            worker = real_spawn(scheduler)
            senders[worker.conn] = worker.process
            return worker

        real_wait = multiprocessing.connection.wait

        def one_exited_sender(conns, timeout=None):
            for conn in real_wait(conns, timeout):
                sender = senders[conn]
                assert real_wait([sender.sentinel], 5.0), "sender did not exit"
                sender.join()  # reaped, so its end of the pipe is closed too
                return [conn]
            return []

        monkeypatch.setattr(scheduler_module, "_worker_main", one_job_worker)
        monkeypatch.setattr(Scheduler, "_spawn_worker", spawn_and_remember)
        monkeypatch.setattr(multiprocessing.connection, "wait", one_exited_sender)
        jobs = [
            Job(kind="workload", name=name, spec={"shard": i})
            for i, name in enumerate(["logic", "scanner"] * 2)
        ]
        store = ResultStore()
        report = Scheduler(jobs=2, store=store).run_report(jobs)
        assert sorted(r["job_key"] for r in store.records) == sorted(j.key for j in jobs)
        assert aggregate(store.records)["duplicates"] == []
        assert not report.degraded_serial
        assert report.crashes == 2
        assert [r["status"] for r in report.records] == ["ok"] * 4
        assert [r["attempts"] for r in report.records] == [1] * 4

    def test_crash_exhausting_attempts_is_recorded_not_raised(self, probes):
        (record,) = Scheduler(jobs=2, max_attempts=2).run([probe_job("crash", 99)])
        assert record["status"] == "crash"
        assert record["attempts"] == 2
        assert record["error"]["type"] == "WorkerCrash"
        assert record["error"]["attempt"] == 2

    def test_hung_worker_is_killed_and_recorded_as_timeout(self, probes):
        report = Scheduler(jobs=2, timeout_s=0.3, max_attempts=2).run_report(
            [probe_job("hang", 99)]
        )
        (record,) = report.records
        assert record["status"] == "timeout"
        assert record["error"]["type"] == "WallTimeout"
        assert record["error"]["attempt"] == 2
        assert record["attempts"] == 2
        assert report.timeouts == 2  # both attempts hit the wall deadline

    def test_faulting_job_does_not_poison_its_worker(self, bus_fault_job):
        # two workers take the two faulting jobs first; with no crash to
        # respawn them, the same two workers then run both healthy jobs
        runaway = workload_jobs(["scanner"], max_steps=1_000)
        jobs = [bus_fault_job, *runaway, *workload_jobs(FAST_WORKLOADS)]
        report = Scheduler(jobs=2).run_report(jobs)
        assert not report.degraded_serial
        assert report.crashes == report.timeouts == 0
        assert [r["status"] for r in report.records] == ["fault", "timeout", "ok", "ok"]
        for record, name in zip(report.records[2:], FAST_WORKLOADS):
            assert record["output"] == EXPECTED_OUTPUT[name]


class TestResultStore:
    def test_streaming_roundtrip_and_digest(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            records = Scheduler(jobs=2, store=store).run(workload_jobs(FAST_WORKLOADS))
        loaded = ResultStore.load(path)
        assert len(loaded) == len(records)
        assert aggregate(loaded)["digest"] == aggregate(records)["digest"]

    def test_aggregate_is_order_independent(self):
        records = Scheduler(jobs=1).run(workload_jobs(FAST_WORKLOADS))
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        assert aggregate(shuffled)["digest"] == aggregate(records)["digest"]

    def test_store_lines_are_json_without_payload(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            Scheduler(jobs=1, store=store).run(experiment_jobs(["table5"]))
        with open(path) as handle:
            (line,) = [l for l in handle if l.strip()]
        record = json.loads(line)
        assert "payload" not in record
        assert record["rendered"].startswith("== Table 5")

    def test_duplicate_keys_flagged(self):
        records = Scheduler(jobs=1).run(workload_jobs(["scanner"]))
        summary = aggregate(records + records)
        assert summary["duplicates"]

    def test_load_tolerates_truncated_trailing_line(self, tmp_path, capsys):
        # a crashed farm run leaves a partial final line; load must keep
        # every complete record and warn, not raise
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            records = Scheduler(jobs=1, store=store).run(workload_jobs(FAST_WORKLOADS))
        with open(path, "a") as handle:
            handle.write('{"status": "ok", "name": "half-writ')  # no newline, cut mid-string
        loaded = ResultStore.load(path)
        assert len(loaded) == len(records)
        assert aggregate(loaded)["digest"] == aggregate(records)["digest"]
        warning = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert warning["warning"] == "truncated-result-record"
        assert warning["path"] == path

    def test_load_still_rejects_midstream_corruption(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            Scheduler(jobs=1, store=store).run(workload_jobs(FAST_WORKLOADS))
        with open(path) as handle:
            lines = handle.readlines()
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"  # damage a non-final record
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="corrupt result record mid-stream"):
            ResultStore.load(path)


class TestExperimentsThroughFarm:
    CHEAP = ["table5", "figure2", "figure3"]

    def test_farm_render_matches_direct_render(self):
        from repro.experiments import REGISTRY, run_named

        direct = [REGISTRY[name]().render() for name in self.CHEAP]
        for jobs in (1, 2):
            results = run_named(self.CHEAP, jobs=jobs)
            assert [r.render() for r in results] == direct

    def test_failed_experiment_raises_with_context(self):
        from repro.experiments import run_named

        with pytest.raises(KeyError):
            run_named(["not_an_experiment"])
