#!/usr/bin/env python3
"""Outside-in benchmark: four workloads, end-to-end and per-layer metrics.

From the repository root::

    python3 bench/run.py [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--quick]

With exactly one ``--workload`` the workload runs in this process;
otherwise each named workload (default: all four) runs in its own fresh
interpreter, one at a time.  A run sets up, loops over the workload's
operations for ``--seconds`` (always finishing the first round), checks
every output, prints each metric with its unit and sample count, writes
``bench/out/result-<workload>-seed<N>-<ms>.json``, and ends with one
JSON line holding ``correct``, ``attempted``, ``failed`` and ``metrics``.

Reported times are scaled to a reference host speed by :func:`yardstick`,
timed just before each operation; the result file keeps the measured
values too.

``--trace 0`` reports BENCHMARK.json's end-to-end metrics.  ``--trace 1``
reports its per-layer metrics: one untraced round, then the same loop
with spans around the program's entry points (``spans.py``); it also
writes ``bench/out/trace-<workload>.json`` and ``.collapsed``.

Exit status: 0 when every operation was correct, 1 when any failed, 2
when the benchmark cannot run (no program source, unknown workload).
"""

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import spans

STARTED = time.perf_counter()  # set-up time counts from here

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
#: set-ups per run: this process plus fresh interpreters; setup_s is their median
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 60
#: reported times are scaled to a reference host on which yardstick() takes
#: this long
YARDSTICK_REF_S = 1e-3
#: yardstick samples taken right after a set-up, to scale its time
SETUP_YARDSTICKS = 7


def yardstick() -> float:
    """Seconds this process takes for a fixed piece of stdlib-only work.

    A shared host's speed drifts by tens of percent within seconds, and
    the program's ops slow down with it.  Timed just before an op, this
    loop slows down alike, so op times scaled by it compare across runs.
    It does not touch the program, so no change to the program moves it.
    """
    started = time.perf_counter()
    counts = {}
    for i in range(20_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - started


def host_scale(samples) -> float:
    """The factor that turns this host's seconds into reference seconds."""
    return YARDSTICK_REF_S / statistics.median(samples)


class Measurement:
    """Timings, counts and failures from one loop over a workload."""

    def __init__(self) -> None:
        #: op kind -> (seconds, guest words, host scale) of each correct,
        #: timed op; the scale comes from the yardstick taken just before it
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.yardsticks = []  # one yardstick() per op, taken just before it
        self.counts = Counter({"guest_words": 0, "guest_cycles": 0, "code_words": 0})

    def run_op(self, kind, op, rnd, tracer) -> None:
        # garbage from earlier ops is not this op's cost: each CLI run of
        # the program starts from a fresh process
        gc.collect()
        self.yardsticks.append(yardstick())
        scale = YARDSTICK_REF_S / self.yardsticks[-1]
        error = None
        started = time.perf_counter()
        try:
            with tracer.op(kind, rnd) if tracer else nullcontext():
                result = op()
        except Exception:  # a failed op is data: count it and keep going
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if result is None or not result.ok:
            self.failed += 1
            self.errors.append(f"{kind}: {error or 'wrong output'}")
            return
        if result.timed:
            self.samples[kind].append((elapsed, result.words, scale))
        if rnd == 0:
            self.counts["guest_words"] += result.words
            self.counts["guest_cycles"] += result.cycles
            self.counts["code_words"] += result.code_words


def measure(workload, state, seconds, tracer=None) -> Measurement:
    """Run rounds until ``seconds`` have passed, finishing the first round."""
    m = Measurement()
    start = time.perf_counter()
    for rnd in itertools.count():
        for kind, op in workload.round(state, rnd):
            if rnd and time.perf_counter() - start >= seconds:
                break
            m.run_op(kind, op, rnd, tracer)
        if time.perf_counter() - start >= seconds:
            break
    if tracer:
        tracer.flush()
    m.counts["code_words"] += state.code_words
    return m


def _metric(value, unit, n) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _kind_geomean(per_kind, unit) -> dict:
    """Geomean over op kinds of each kind's median sample."""
    medians = [statistics.median(v) for v in per_kind if v]
    value = statistics.geometric_mean(medians) if medians else 0.0
    return _metric(value, unit, sum(len(v) for v in per_kind))


def _op_ms(m: Measurement, kinds, scaled=True) -> dict:
    """Op time: each sample at reference host speed, or as measured."""
    return _kind_geomean(
        [[t * 1e3 * (s if scaled else 1) for t, _, s in m.samples[k]] for k in kinds], "ms"
    )


def _mwords_per_s(m: Measurement, scaled=True) -> dict:
    return _kind_geomean(
        [[w * 1e-6 / (t * (s if scaled else 1)) for t, w, s in v if w] for v in m.samples.values()],
        "Mwords/s",
    )


def end_to_end(m: Measurement, setups) -> dict:
    """The BENCHMARK.json metrics, with times at reference host speed, and
    the same times as measured (``.raw``) for the result file."""
    raw_setups = [raw for raw, _ in setups]
    metrics = {
        "setup_s": _metric(statistics.median(raw * scale for raw, scale in setups),
                           "s", len(setups)),
        "op_ms.geomean": _op_ms(m, m.samples),
        "guest_mwords_per_s": _mwords_per_s(m),
        "setup_s.raw": _metric(statistics.median(raw_setups), "s", len(setups)),
        "op_ms.geomean.raw": _op_ms(m, m.samples, scaled=False),
        "guest_mwords_per_s.raw": _mwords_per_s(m, scaled=False),
        "yardstick_ms": _metric(statistics.median(m.yardsticks) * 1e3, "ms",
                                len(m.yardsticks)),
    }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(rss_kb / 1024, "MB", 1)
    return metrics


def op_kinds(m: Measurement) -> dict:
    """Median milliseconds per op kind, and the geomean per kind suffix
    (``compile``, ``run``, ``warmup``, ``slice``, ``boot``) for the result file."""
    kinds = {
        kind: _metric(statistics.median(t for t, _, _ in v) * 1000, "ms", len(v))
        for kind, v in sorted(m.samples.items())
    }
    groups = defaultdict(list)
    for kind, entry in kinds.items():
        if "." in kind:
            groups[kind.rsplit(".", 1)[1]].append(entry["value"])
    for suffix, values in sorted(groups.items()):
        kinds[f"{suffix}.geomean"] = _metric(statistics.geometric_mean(values), "ms", len(values))
    return kinds


def per_layer(tracer, m: Measurement, base: Measurement):
    layers, unattributed, wall = tracer.self_times()
    metrics = {f"{name}.share": _metric(own / wall, "share", 1) for name, own in layers.items()}
    metrics["unattributed.share"] = _metric(unattributed / wall, "share", 1)
    # at reference host speed, so drift between the two measurements cancels
    kinds = sorted(set(m.samples) & set(base.samples))
    overhead = _op_ms(m, kinds)["value"] / _op_ms(base, kinds)["value"]
    metrics["trace.overhead"] = _metric(overhead, "ratio", len(kinds))
    counts = tracer.counts
    for name, value in counts.items():
        metrics[name] = _metric(value, spans.COUNTERS.get(name, "count"), 1)
    words = counts["sim.words"] or 1
    dispatches = counts.get("sim.fastpath.word_dispatches", 0)
    metrics["sim.fastpath.dispatch_fraction"] = _metric(dispatches / words, "ratio", 1)
    metrics["sim.ref_step_fraction"] = _metric(
        counts.get("sim.fastpath.ref_steps", 0) / words, "ratio", 1
    )
    metrics["sim.fastpath.words_per_compile"] = _metric(
        dispatches / (counts.get("sim.fastpath.compiles", 0) or 1), "words", 1
    )
    trace = {
        "wall_ms": wall * 1000,
        "unattributed_ms": unattributed * 1000,
        "self_ms": {name: own * 1000 for name, own in layers.items()},
        "spans": len(tracer.spans),
    }
    return metrics, trace


def setup_time(started) -> tuple:
    """(seconds since ``started``, this host's scale right after set-up)."""
    raw = time.perf_counter() - started
    return raw, host_scale([yardstick() for _ in range(SETUP_YARDSTICKS)])


def child_setup_time(name, seed, quick) -> tuple:
    """:func:`setup_time` of a fresh interpreter setting up the same workload."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_up(name, seed, quick):
    """Import the program, set the workload up and run its warm-up op."""
    import workloads

    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed, quick)
    workload.warm(state)
    return workload, state


def run_workload(name, seed, seconds, trace, quick, started) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    workload, state = set_up(name, seed, quick)
    setup = setup_time(started)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": _nproc(),
        "started": time.time(),
    }
    if trace:
        base = measure(workload, state, 0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            m = measure(workload, state, seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, result["trace_summary"] = per_layer(tracer, m, base)
        OUT.mkdir(exist_ok=True)
        tracer.export(OUT / f"trace-{name}.json", OUT / f"trace-{name}.collapsed")
    else:
        m = measure(workload, state, seconds)
        setups = [setup] + [
            child_setup_time(name, seed, quick) for _ in range(SETUP_RUNS - 1)
        ]
        metrics = end_to_end(m, setups)
        result["setup_samples"] = setups
    result.update(
        metrics=metrics,
        attempted=m.attempted,
        failed=m.failed,
        failed_ratio=m.failed / max(m.attempted, 1),
        counts=dict(m.counts),
        op_kinds=op_kinds(m),
        errors=m.errors,
    )
    return result


def final_line(result: dict, listed) -> dict:
    """The contract's last stdout line: the listed metrics, value and unit."""
    metrics = {
        name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
        for name in listed
        if name in result["metrics"]
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(result: dict, listed) -> None:
    for error in result["errors"]:
        print(f"FAILED {error.strip().splitlines()[-1]}")
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed_ratio']}")
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']:9s} n={entry['n']}")
    for name, entry in result["op_kinds"].items():
        print(f"  op {name:33s} {entry['value']:>16.6g} {entry['unit']:9s} n={entry['n']}")
    for name, value in result["counts"].items():
        print(f"  exact {name:30s} {value:>16d}")
    print(json.dumps(final_line(result, listed)))


def run_each(names, args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # a harness running BENCHMARK.json's command passes --seconds run_seconds
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the loop measures (default: BENCHMARK.json's "
                             "run_seconds; the first round always completes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv=None) -> int:
    if not (SOURCE / "repro").is_dir() or not SPEC.is_file():
        print(f"error: run from a checkout: need {SPEC.name} and src/repro", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    if len(args.workload) != 1:
        return run_each(args.workload, args)
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    name = args.workload[0]
    if args.setup_only:
        set_up(name, args.seed, args.quick)
        print(json.dumps(setup_time(STARTED)))
        return 0
    result = run_workload(name, args.seed, args.seconds, args.trace, args.quick, STARTED)
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = OUT / f"result-{name}-seed{args.seed}{suffix}-{int(result['started'] * 1000)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    report(result, listed)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
