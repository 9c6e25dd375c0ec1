"""The service layer: persistent result cache + HTTP gateway.

The contracts under test:

- the cache is content-addressed on farm job keys, integrity-checked,
  and **self-healing**: any corrupt entry is evicted with a warning and
  the job simply re-executes -- bad bytes are never served;
- a warm run and a cold run agree byte-for-byte on the aggregate
  digest, on every engine tier;
- the gateway serves hits without dispatching, coalesces concurrent
  duplicate submissions into one farm execution (single-flight),
  refuses quota-busting requests with 429 + Retry-After, and keeps
  serving while a slow client drains a stream (backpressure);
- only deterministic outcomes are cached (wall-clock noise re-executes).
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.farm import Job, ResultStore, Scheduler, aggregate, workload_jobs
from repro.farm.store import stable_view
from repro.service import (
    Gateway,
    ResultCache,
    ServiceClient,
    ServiceError,
    cacheable,
    hydrate,
    integrity_digest,
)

#: a guest program that halts after one instruction -- the cheapest
#: possible farm job, used to keep gateway tests fast
HALT_ASM = "start:  trap #0\n        nop\n"

#: cheap corpus members (tens of thousands of cycles, not millions)
FAST_WORKLOADS = ("scanner", "logic")


def tiny_jobs(n, **spec_extra):
    """n distinct one-instruction asm jobs (distinct content keys)."""
    return [
        Job(kind="asm", name=f"tiny{i}", spec={"source": HALT_ASM, "n": i, **spec_extra})
        for i in range(n)
    ]


def fast_scheduler(**kwargs):
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return Scheduler(**kwargs)


# ---------------------------------------------------------------------------
# the cache itself


class TestResultCache:
    def test_roundtrip_serves_stable_view(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        (record,) = fast_scheduler(jobs=1, cache=cache).run(tiny_jobs(1))
        assert cache.stats.stores == 1
        view = cache.get(record["job_key"])
        assert view == stable_view(record)
        assert "wall_s" not in view and "index" not in view

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("deadbeefdeadbeef") is None
        assert cache.stats.misses == 1

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.raises(ValueError):
            cache.get("../../etc/passwd")

    def test_corrupt_entry_evicted_with_warning(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path / "cache"))
        (record,) = fast_scheduler(jobs=1, cache=cache).run(tiny_jobs(1))
        key = record["job_key"]
        path = cache.path_for(key)
        with open(path, "w") as handle:
            handle.write("{ not json at all")
        assert cache.get(key) is None
        warning = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert warning["warning"] == "evicted-corrupt-cache-entry"
        assert warning["job_key"] == key
        assert cache.stats.evicted_corrupt == 1
        import os

        assert not os.path.exists(path)

    def test_integrity_mismatch_evicted(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path / "cache"))
        (record,) = fast_scheduler(jobs=1, cache=cache).run(tiny_jobs(1))
        key = record["job_key"]
        path = cache.path_for(key)
        with open(path) as handle:
            entry = json.load(handle)
        entry["record"]["cycles"] = entry["record"]["cycles"] + 1  # tampered
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None
        assert "integrity digest mismatch" in capsys.readouterr().err
        # the eviction healed the cache: a re-run repopulates it
        (again,) = fast_scheduler(jobs=1, cache=cache).run(tiny_jobs(1))
        assert stable_view(again) == stable_view(record)
        assert cache.get(key) == stable_view(record)

    def test_hydrated_record_digests_like_a_fresh_one(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        (record,) = fast_scheduler(jobs=1, cache=cache).run(tiny_jobs(1))
        hydrated = hydrate(cache.get(record["job_key"]), index=0)
        assert hydrated["cached"] is True
        assert stable_view(hydrated) == stable_view(record)
        assert aggregate([hydrated])["digest"] == aggregate([record])["digest"]

    def test_integrity_digest_is_canonical(self):
        assert integrity_digest({"b": 1, "a": 2}) == integrity_digest({"a": 2, "b": 1})


class TestCacheability:
    def test_deterministic_outcomes_are_cacheable(self):
        assert cacheable({"status": "ok", "kind": "workload"})
        assert cacheable({"status": "fault", "kind": "asm"})
        # in-machine step budget: deterministic guest timeout
        assert cacheable(
            {"status": "timeout", "kind": "asm", "error": {"type": "TimeoutError"}}
        )

    def test_load_noise_is_not_cacheable(self):
        assert not cacheable({"status": "ok", "kind": "workload", "retryable": True})
        assert not cacheable(
            {"status": "timeout", "kind": "asm", "error": {"type": "WallTimeout"}}
        )
        assert not cacheable({"status": "crash", "kind": "workload"})
        assert not cacheable({"status": "error", "kind": "source"})
        # wall-clock measurements must re-run even when they succeeded
        assert not cacheable({"status": "ok", "kind": "bench"})

    def test_error_record_not_stored(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        bad = Job(kind="source", name="broken", spec={"source": "not pascal"})
        (record,) = fast_scheduler(jobs=1, cache=cache).run([bad])
        assert record["status"] == "error"
        assert cache.stats.stores == 0
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# the farm scheduler with a cache attached


class TestCachedScheduler:
    def test_cold_then_warm_digest_identity(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = workload_jobs(FAST_WORKLOADS)
        fresh = fast_scheduler(jobs=1).run(jobs)
        cold = fast_scheduler(jobs=1, cache=cache).run_report(jobs)
        warm = fast_scheduler(jobs=1, cache=cache).run_report(jobs)
        assert (cold.cache_hits, cold.cache_misses) == (0, len(jobs))
        assert (warm.cache_hits, warm.cache_misses) == (len(jobs), 0)
        digests = {
            aggregate(records)["digest"]
            for records in (fresh, cold.records, warm.records)
        }
        assert len(digests) == 1

    @pytest.mark.parametrize("engine", ["precise", "fast"])
    def test_digest_identity_per_engine(self, tmp_path, engine):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = workload_jobs(["scanner"], engine=engine)
        cold = fast_scheduler(jobs=1, cache=cache).run(jobs)
        warm = fast_scheduler(jobs=1, cache=cache).run(jobs)
        assert aggregate(cold)["digest"] == aggregate(warm)["digest"]

    def test_warm_run_never_dispatches(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = tiny_jobs(3)
        fast_scheduler(jobs=1, cache=cache).run(jobs)

        def boom(*args, **kwargs):
            raise AssertionError("a cache hit must not reach the executor")

        monkeypatch.setattr("repro.farm.scheduler.execute_job", boom)
        report = fast_scheduler(jobs=1, cache=cache).run_report(jobs)
        assert report.cache_hits == 3
        assert all(r["cached"] for r in report.records)

    def test_cache_hits_stream_to_the_store(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = tiny_jobs(2)
        fast_scheduler(jobs=1, cache=cache).run(jobs)
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            fast_scheduler(jobs=1, cache=cache, store=store).run(jobs)
        loaded = ResultStore.load(path)
        assert len(loaded) == 2
        assert all(r["cached"] for r in loaded)

    def test_sharded_warm_run_matches_serial(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = workload_jobs(FAST_WORKLOADS)
        fast_scheduler(jobs=1, cache=cache).run(jobs)
        warm = fast_scheduler(jobs=2, cache=cache).run_report(jobs)
        assert warm.cache_hits == len(jobs)
        fresh = fast_scheduler(jobs=2).run(jobs)
        assert aggregate(warm.records)["digest"] == aggregate(fresh)["digest"]


class TestFarmCacheCli:
    def test_mips_farm_run_cache_flag(self, tmp_path, capsys):
        from repro.cli import farm_main

        cache_dir = str(tmp_path / "cache")
        argv = [
            "run",
            "--workload",
            "scanner",
            "--cache",
            cache_dir,
            "--stable-results",
        ]
        assert farm_main(argv + [str(tmp_path / "cold.jsonl")]) == 0
        cold_out = capsys.readouterr().out
        assert farm_main(argv + [str(tmp_path / "warm.jsonl")]) == 0
        warm_out = capsys.readouterr().out
        assert "1 cache hits / 0 misses" in warm_out
        assert "(cached)" in warm_out
        assert "0 cache hits / 1 misses" in cold_out
        with open(tmp_path / "cold.jsonl") as a, open(tmp_path / "warm.jsonl") as b:
            assert a.read() == b.read()

    def test_stable_results_match_digest(self, tmp_path):
        from repro.cli import farm_main

        path = tmp_path / "stable.jsonl"
        assert farm_main(
            ["run", "--workload", "scanner", "--stable-results", str(path)]
        ) == 0
        (line,) = [l for l in path.read_text().splitlines() if l]
        view = json.loads(line)
        assert "wall_s" not in view
        (direct,) = fast_scheduler(jobs=1).run(workload_jobs(["scanner"]))
        assert view == stable_view(direct)

    def test_bench_report_gates_accept_cache(self, tmp_path):
        from repro.perf.baseline import collect_cycles

        cache = ResultCache(str(tmp_path / "cache"))
        cold = collect_cycles(names=["scanner"], cache=cache)
        warm = collect_cycles(names=["scanner"], cache=cache)
        assert cold == warm
        assert cache.stats.hits == 1


# ---------------------------------------------------------------------------
# the gateway


class GatewayHarness:
    """One live gateway on an ephemeral port, loop in a daemon thread."""

    def __init__(self, tmp_path, **kwargs):
        self.cache = kwargs.pop("cache", None) or ResultCache(str(tmp_path / "gw-cache"))
        self.gateway = Gateway(cache=self.cache, port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.gateway.start(), self.loop).result(10)

    @property
    def port(self):
        return self.gateway.port

    def client(self, tenant="anon"):
        return ServiceClient(port=self.port, tenant=tenant, timeout_s=30.0)

    def close(self):
        asyncio.run_coroutine_threadsafe(self.gateway.close(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)


@pytest.fixture
def gateway_factory(tmp_path):
    live = []

    def make(**kwargs):
        harness = GatewayHarness(tmp_path, **kwargs)
        live.append(harness)
        return harness

    yield make
    for harness in live:
        harness.close()


def counting_factory(cache, calls, delay_s=0.0):
    """A scheduler factory that records every batch it executes."""

    def factory():
        class _Recording(Scheduler):
            # run_report is the primitive (run delegates to it, and the
            # gateway calls it directly for the farm accounting)
            def run_report(self, jobs):
                calls.append([job.key for job in jobs])
                if delay_s:
                    time.sleep(delay_s)
                return super().run_report(jobs)

        return _Recording(jobs=1, cache=cache)

    return factory


class TestGateway:
    def test_miss_then_hit_byte_identical(self, gateway_factory):
        harness = gateway_factory()
        client = harness.client()
        jobs = [job.to_dict() for job in tiny_jobs(3)]
        first = client.submit(jobs)
        assert (first.cache_hits, first.cache_misses) == (0, 3)
        second = client.submit(jobs)
        assert (second.cache_hits, second.cache_misses) == (3, 0)
        assert first.lines == second.lines
        assert aggregate(first.records)["digest"] == aggregate(second.records)["digest"]
        stats = client.stats()["gateway"]
        assert stats["executed"] == 3
        assert stats["scheduler_runs"] == 1  # the second pass dispatched nothing

    def test_results_stream_in_submission_order(self, gateway_factory):
        harness = gateway_factory()
        result = harness.client().submit([job.to_dict() for job in tiny_jobs(4)])
        assert [r["name"] for r in result.records] == [f"tiny{i}" for i in range(4)]

    def test_result_endpoint_and_corruption_eviction(self, gateway_factory):
        harness = gateway_factory()
        client = harness.client()
        (record,) = client.submit([job.to_dict() for job in tiny_jobs(1)]).records
        key = record["job_key"]
        assert client.result(key) == record
        with open(harness.cache.path_for(key), "w") as handle:
            handle.write("garbage")
        with pytest.raises(ServiceError) as excinfo:
            client.result(key)
        assert excinfo.value.status == 404
        assert client.stats()["cache"]["evicted_corrupt"] == 1
        # the eviction healed the path: resubmission re-executes, same bytes
        (again,) = client.submit([job.to_dict() for job in tiny_jobs(1)]).records
        assert again == record

    def test_invalid_submissions_rejected(self, gateway_factory):
        harness = gateway_factory()
        client = harness.client()
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{"kind": "nonsense", "name": "x"}])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit([{"name": "missing-kind"}])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/submit", {"not-jobs": []})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/no/such/endpoint")
        assert excinfo.value.status == 404

    def test_quota_exhaustion_returns_429_with_retry_after(self, gateway_factory):
        harness = gateway_factory(quota_jobs=2)
        client = harness.client(tenant="greedy")
        with pytest.raises(ServiceError) as excinfo:
            client.submit([job.to_dict() for job in tiny_jobs(3)])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1
        assert harness.gateway.stats.rejected_quota == 1
        # nothing leaked into the single-flight registry
        assert len(harness.gateway._inflight) == 0
        # a request inside the bound still succeeds
        assert len(client.submit([job.to_dict() for job in tiny_jobs(2)]).records) == 2

    def test_quota_is_per_tenant(self, gateway_factory, tmp_path):
        calls = []
        cache = ResultCache(str(tmp_path / "quota-cache"))
        harness = gateway_factory(
            cache=cache,
            quota_jobs=2,
            scheduler_factory=counting_factory(cache, calls, delay_s=0.8),
        )
        background = []
        thread = threading.Thread(
            target=lambda: background.append(
                harness.client(tenant="alpha").submit(
                    [job.to_dict() for job in tiny_jobs(2)]
                )
            )
        )
        thread.start()
        deadline = time.time() + 5.0
        while harness.gateway._tenant_pending.get("alpha", 0) < 2:
            assert time.time() < deadline, "batch never registered"
            time.sleep(0.01)
        # alpha is at its bound: one more alpha job is refused...
        extra = Job(kind="asm", name="extra", spec={"source": HALT_ASM, "n": 99})
        with pytest.raises(ServiceError) as excinfo:
            harness.client(tenant="alpha").submit([extra.to_dict()])
        assert excinfo.value.status == 429
        # ...but tenant beta is unaffected by alpha's backlog
        beta = harness.client(tenant="beta").submit([extra.to_dict()])
        assert len(beta.records) == 1
        thread.join(10)
        assert background[0].cache_misses == 2

    def test_concurrent_duplicate_submissions_single_flight(
        self, gateway_factory, tmp_path
    ):
        calls = []
        cache = ResultCache(str(tmp_path / "sf-cache"))
        harness = gateway_factory(
            cache=cache, scheduler_factory=counting_factory(cache, calls, delay_s=0.5)
        )
        job = Job(kind="asm", name="shared", spec={"source": HALT_ASM})
        results = {}

        def submit(tag, tenant):
            results[tag] = harness.client(tenant=tenant).submit([job.to_dict()])

        first = threading.Thread(target=submit, args=("a", "alpha"))
        second = threading.Thread(target=submit, args=("b", "beta"))
        first.start()
        deadline = time.time() + 5.0
        while job.key not in harness.gateway._inflight:
            assert time.time() < deadline, "first submission never registered"
            time.sleep(0.01)
        second.start()
        first.join(10)
        second.join(10)
        # one farm execution total, both callers got the record
        assert calls == [[job.key]]
        assert results["a"].records == results["b"].records
        assert results["a"].cache_misses == 1
        assert results["b"].coalesced == 1
        assert harness.gateway.stats.executed == 1

    def test_backpressure_slow_client_does_not_stall_the_server(self, gateway_factory):
        harness = gateway_factory()
        jobs = [job.to_dict() for job in tiny_jobs(8)]
        body = json.dumps({"jobs": jobs}).encode()
        request = (
            f"POST /submit HTTP/1.1\r\nHost: gw\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as sock:
            sock.sendall(request)
            chunks = []
            probed = False
            while True:
                data = sock.recv(128)  # tiny reads: the client is the bottleneck
                if not data:
                    break
                chunks.append(data)
                if not probed and len(chunks) >= 3:
                    # mid-stream, a healthy client must still be served
                    assert harness.client().healthz() == {"ok": True}
                    probed = True
                time.sleep(0.005)
        assert probed
        payload = b"".join(chunks)
        _, _, streamed = payload.partition(b"\r\n\r\n")
        lines = [line for line in streamed.decode().splitlines() if line]
        assert len(lines) == 8
        assert [json.loads(line)["name"] for line in lines] == [
            f"tiny{i}" for i in range(8)
        ]

    def test_warm_endpoint_populates_cache(self, gateway_factory):
        harness = gateway_factory()
        client = harness.client()
        first = client.warm(["scanner"])
        assert (first["hits"], first["misses"]) == (0, 1)
        second = client.warm(["scanner"])
        assert (second["hits"], second["misses"]) == (1, 0)
        assert first["digest"] == second["digest"]
        with pytest.raises(ServiceError) as excinfo:
            client.warm(["no-such-workload"])
        assert excinfo.value.status == 400


class TestServeCli:
    def test_submit_without_server_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import serve_main

        # a port nothing listens on: connection refused, exit 2
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = serve_main(
            ["submit", "--port", str(free_port), "--workload", "scanner"]
        )
        assert code == 2
        assert "cannot reach gateway" in capsys.readouterr().err

    def test_warm_subcommand_offline(self, tmp_path, capsys):
        from repro.cli import serve_main

        cache_dir = str(tmp_path / "warm-cache")
        argv = ["warm", "--cache", cache_dir, "--workload", "scanner"]
        assert serve_main(argv) == 0
        first = capsys.readouterr().out
        assert "1 jobs, 0 already cached, 1 executed" in first
        assert serve_main(argv) == 0
        second = capsys.readouterr().out
        assert "1 jobs, 1 already cached, 0 executed" in second
        assert first.split("digest")[1] == second.split("digest")[1]
