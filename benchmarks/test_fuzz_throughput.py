"""Housekeeping benchmark: fuzz generation + oracle throughput.

Not a paper result -- it keeps the fuzz harness fast enough to matter.
Two floors: generating and oracle-checking instruction-stream cases
must sustain a minimum cases/sec serially (the full differential
oracle, two engines per case), and sharding a mixed batch over four
farm workers must beat serial execution by >= 2x on a machine with at
least four cores.  Whatever the core count, the sharded stable records
must be identical to the serial ones -- parallelism buys time, never
different bytes.
"""

import os
import time

from repro.farm import Scheduler
from repro.farm.job import fuzz_jobs
from repro.farm.store import stable_view
from repro.fuzz import MODE_WORDS, check_case, make_case

PARALLEL_WORKERS = 4
#: serial floor for the cheap tier; measured ~110/s, floored with slack
WORD_CASES_PER_S = 25.0

#: a mixed AST+words range big enough to shard meaningfully; starts at 1
#: so no chaos-sampled index (slowest tier) skews the speedup measurement
BATCH_SEED, BATCH_START, BATCH_CASES, BATCH_SIZE = 23, 1, 12, 3


def test_word_case_throughput_floor():
    count = 40
    start = time.perf_counter()
    for index in range(count):
        result = check_case(make_case(9, index, MODE_WORDS))
        assert not result.failed, result.divergences
    elapsed = time.perf_counter() - start
    rate = count / elapsed
    print(f"\nfuzz: {count} word cases in {elapsed:.2f}s ({rate:.0f}/s)")
    assert rate >= WORD_CASES_PER_S, (
        f"word-case oracle throughput {rate:.1f}/s below the "
        f"{WORD_CASES_PER_S}/s floor"
    )


def _timed_batch(workers: int):
    jobs = fuzz_jobs(
        BATCH_SEED, BATCH_CASES, mode="both", batch=BATCH_SIZE, start=BATCH_START
    )
    scheduler = Scheduler(jobs=workers, backoff_base_s=0.01, backoff_cap_s=0.1)
    start = time.perf_counter()
    records = scheduler.run(jobs)
    return time.perf_counter() - start, records


def test_fuzz_farm_parallel_speedup():
    serial_s, serial_records = _timed_batch(1)
    parallel_s, parallel_records = _timed_batch(PARALLEL_WORKERS)

    # sharding never changes the records, whatever the core count
    assert [stable_view(r) for r in serial_records] == [
        stable_view(r) for r in parallel_records
    ]
    assert all(r["status"] == "ok" for r in serial_records)
    checked = sum(len(r["extra"]["fuzz"]["cases"]) for r in serial_records)
    assert checked == BATCH_CASES

    cores = os.cpu_count() or 1
    print(
        f"\nfuzz farm: serial {serial_s:.2f}s, {PARALLEL_WORKERS} workers "
        f"{parallel_s:.2f}s ({serial_s / parallel_s:.2f}x) on {cores} cores"
    )
    if cores >= 4:
        assert parallel_s * 2.0 <= serial_s, (
            f"expected >= 2x speedup on a {cores}-core runner: "
            f"serial {serial_s:.2f}s vs parallel {parallel_s:.2f}s"
        )
