#!/usr/bin/env python3
"""The engine differential's run checks: the reference stepper and the
fast path must be invisible to each other in every observable but wall
clock.

    PYTHONPATH=src python tools/engine_differential.py

Three checks, each an assertion that stops the script with a non-zero
exit on the first divergence:

- the farm's workload records for the quick corpus are identical on
  both engines;
- every MiniJava corpus program, compiled at every optimization level,
  gives byte-identical fingerprints, counters and output on both
  engines, and the output matches the pure-Python oracle's;
- every ``examples/minijava`` program prints the same at every level.

``make engine-differential`` runs it after comparing the corpus
profiles of both engines.
"""

from __future__ import annotations

import glob
import os

from repro.farm import Scheduler
from repro.farm.job import workload_jobs
from repro.farm.worker import fingerprint_digest
from repro.mjlang import compile_minijava
from repro.reorg import ALL_LEVELS
from repro.sim import Machine
from repro.workloads import MINIJAVA_CORPUS, MINIJAVA_EXPECTED, QUICK_PROGRAMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINES = {"precise": False, "fast": True}


def farm_records_identical_across_engines() -> None:
    def run(engine):
        records = Scheduler(jobs=2).run(
            workload_jobs(list(QUICK_PROGRAMS), engine=engine)
        )
        return {
            r["name"]: (r["status"], r["fingerprint"], r["cycles"],
                        r["words"], r["stats"], r["output"], r["output_text"])
            for r in records
        }

    fast, precise = run("fast"), run("precise")
    assert fast == precise, "fast vs precise farm records diverged"
    print(f"farm records identical across engines for {len(fast)} workloads")


def minijava_corpus_identical_across_engines() -> None:
    combos = 0
    for name, source in sorted(MINIJAVA_CORPUS.items()):
        for level in ALL_LEVELS:
            compiled = compile_minijava(source, opt_level=level)
            seen = {}
            for engine, fast in ENGINES.items():
                machine = Machine(compiled.program)
                machine.run(fast=fast)
                seen[engine] = (
                    fingerprint_digest(machine.cpu),
                    tuple(machine.output),
                    machine.output_text,
                    machine.stats.cycles,
                    machine.stats.words,
                )
                combos += 1
            assert len(set(seen.values())) == 1, (name, level, seen)
            assert list(seen["precise"][1]) == MINIJAVA_EXPECTED[name], (
                name, level, seen["precise"][1], MINIJAVA_EXPECTED[name])
    print(f"minijava corpus identical across {combos} (program, level, engine) combos")


def minijava_examples_run_at_every_level() -> None:
    paths = sorted(glob.glob(os.path.join(ROOT, "examples", "minijava", "*.java")))
    assert paths, "no MiniJava examples found"
    for path in paths:
        with open(path) as fh:
            source = fh.read()
        outputs = set()
        for level in ALL_LEVELS:
            machine = Machine(compile_minijava(source, opt_level=level).program)
            machine.run()
            outputs.add(tuple(machine.output))
        assert len(outputs) == 1, (path, outputs)
        print(f"{os.path.relpath(path, ROOT)}: {sorted(outputs)[0]}")


if __name__ == "__main__":
    farm_records_identical_across_engines()
    minijava_corpus_identical_across_engines()
    minijava_examples_run_at_every_level()
