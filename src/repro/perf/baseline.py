"""The deterministic cycle-count regression gate.

Wall-clock benchmarks are noisy; cycle counts are not.  Both engines
execute bit-identical instruction streams, so the per-workload counters
this module collects (cycles, stalls, flushes, memory traffic) are
exactly reproducible on any machine at any load.  That turns a
committed ``PERF_BASELINE.json`` into a *blocking* CI gate: any change
that grows a gated counter by more than :data:`DEFAULT_THRESHOLD`
fails, with the worst-offending workload and counter named -- while
the old wall-clock gate stays as a non-blocking nightly backstop.

Flow::

    python tools/bench_report.py cycles            # collect current
    python tools/bench_report.py cycles --gate PERF_BASELINE.json
    python tools/bench_report.py update-baseline   # after intended changes
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..workloads.corpus import QUICK_PROGRAMS
from ..workloads.minijava import MINIJAVA_PROGRAMS

#: the default gate collection: the quick Pascal corpus plus the
#: MiniJava corpus, so the cycle gate watches both front ends' code
#: generation (vtable dispatch and heap traffic included)
GATE_PROGRAMS = tuple(QUICK_PROGRAMS) + tuple(MINIJAVA_PROGRAMS)

#: relative growth in any gated counter that fails the gate
DEFAULT_THRESHOLD = 0.02

#: the stats-record counters the gate watches (all engine-identical)
GATED_COUNTERS = (
    "cycles",
    "words",
    "load_stalls",
    "branch_flush_cycles",
    "loads",
    "stores",
)

BASELINE_VERSION = 1


def collect_cycles(
    names: Sequence[str] = GATE_PROGRAMS,
    jobs: int = 1,
    store=None,
) -> Dict[str, Dict[str, int]]:
    """Per-workload gated counters, collected through the farm.

    Sharding (``jobs``) only changes wall time; the counters in every
    record are deterministic, so the result is identical at any width.
    """
    from ..farm.job import workload_jobs
    from ..farm.scheduler import Scheduler

    records = Scheduler(jobs=jobs, store=store).run(workload_jobs(list(names)))
    out: Dict[str, Dict[str, int]] = {}
    for record in records:
        if record["status"] != "ok":
            raise RuntimeError(
                f"workload {record['name']!r} did not complete cleanly "
                f"(status={record['status']}): cannot build a trustworthy baseline"
            )
        stats = record["stats"] or {}
        out[record["name"]] = {counter: int(stats.get(counter, 0)) for counter in GATED_COUNTERS}
    return dict(sorted(out.items()))


def baseline_document(benchmarks: Dict[str, Dict[str, int]]) -> Dict[str, Any]:
    return {
        "version": BASELINE_VERSION,
        "threshold": DEFAULT_THRESHOLD,
        "counters": list(GATED_COUNTERS),
        "benchmarks": benchmarks,
    }


def write_baseline(path: str, benchmarks: Dict[str, Dict[str, int]]) -> None:
    with open(path, "w") as fh:
        json.dump(baseline_document(benchmarks), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Regression:
    benchmark: str
    counter: str
    baseline: int
    current: int

    @property
    def growth(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 0.0
        return (self.current - self.baseline) / self.baseline

    def render(self) -> str:
        pct = "new" if self.baseline == 0 else f"+{self.growth * 100:.2f}%"
        return (
            f"{self.benchmark}: {self.counter} {self.baseline} -> {self.current} ({pct})"
        )


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Dict[str, int]],
    threshold: Optional[float] = None,
) -> List[Regression]:
    """Every gated counter that grew past the threshold, worst first.

    Workloads present only on one side are ignored (adding a workload
    must not fail the gate; removing one is caught by review of the
    baseline diff itself).  Shrinking counters never fail -- they mean
    the baseline should be refreshed to lock in the win.
    """
    if threshold is None:
        threshold = float(baseline.get("threshold", DEFAULT_THRESHOLD))
    regressions: List[Regression] = []
    for name, counters in baseline.get("benchmarks", {}).items():
        if name not in current:
            continue
        for counter, base_value in counters.items():
            now = int(current[name].get(counter, 0))
            regression = Regression(name, counter, int(base_value), now)
            if regression.growth > threshold:
                regressions.append(regression)
    regressions.sort(key=lambda r: (-r.growth, r.benchmark, r.counter))
    return regressions


def render_gate(regressions: Sequence[Regression], threshold: float = DEFAULT_THRESHOLD) -> str:
    if not regressions:
        return f"perf gate: ok (no counter grew more than {threshold * 100:.0f}%)\n"
    worst = regressions[0]
    lines = [
        f"perf gate: FAIL -- {len(regressions)} counter(s) grew more than "
        f"{threshold * 100:.0f}%",
        f"worst offender: {worst.render()}",
    ]
    lines += [f"  {regression.render()}" for regression in regressions]
    lines.append(
        "if this growth is intended, refresh the baseline with: "
        "python tools/bench_report.py update-baseline"
    )
    return "\n".join(lines) + "\n"
