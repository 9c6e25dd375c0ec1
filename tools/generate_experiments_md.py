#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from live measurements.

    python tools/generate_experiments_md.py [--jobs N] > EXPERIMENTS.md

Experiments execute through the repro.farm scheduler; ``--jobs N``
shards them over worker processes without changing a byte of output.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import REGISTRY, run_named
from repro.experiments.base import _fmt

HEADER = """\
# EXPERIMENTS — paper versus measured

Every table and figure of *Hardware/Software Tradeoffs for Increased
Performance* (Hennessy et al., ASPLOS 1982), regenerated by this
repository and placed next to the paper's published values.  This file
is produced by `python tools/generate_experiments_md.py`; the same
numbers are asserted (as shape constraints) by the tier-1 tests in
`tests/test_experiments.py`.

**Reading guide.** Figures 1-3 and Tables 2, 5, 9 reproduce the paper's
numbers *exactly* — they are properties of code sequences and cost
models, not of a workload.  The distributional tables (1, 3, 4, 7, 8,
10, 11) depend on the program corpus; the paper measured proprietary
Stanford Pascal programs, we measure the synthetic corpus in
`repro.workloads` built to the paper's description ("compilers,
optimizers, and VLSI design aid software ... reasonably involved with
text handling").  For those, the *shape* — who wins, in which
direction, by roughly what factor — is the reproduced result, and the
tables below show both columns so the reader can judge.

Deliberate substitutions are listed in DESIGN.md; the residual
differences worth calling out:

- **Table 11**: our code generator starts from a tighter baseline than
  the paper's Portable-C-Compiler-derived pieces (it strength-reduces,
  folds constants, and allocates registers), so there is less slack for
  the postpass to reclaim: total improvements land at ~12-19% versus
  the paper's 20.6-35.1%.  The cumulative ordering, the mechanism, and
  the per-level contributions all match.
- **Free cycles**: register allocation keeps far more traffic out of
  memory than a 1982 compiler did, so our free-bandwidth fraction is
  higher than the paper's ~40% wasted figure (per-program it spans
  0.45-0.96).  The claim being reproduced — a large fraction of the
  data-memory bandwidth is idle and a DMA engine can drain it at zero
  processor cost — holds with room to spare.
- **Table 3**: our corpus is ~40x smaller than the paper's, so the
  percentages are noisier; the conclusion (condition codes save almost
  nothing) is unchanged.

**Live counters.** The offline tables above have online counterparts:
`repro.perf` samples hardware-style counter groups from any run (see
`mips-prof`), and each group maps onto a paper measurement --

| counter group | derives | paper reference |
|---|---|---|
| `immediates` | executed constants bucketed 0/1/2/≤15/≤255/large, imm4/movi coverage | Table 1 (constant distribution) |
| `control` | branch/taken rates, compares a condition code would have saved | Table 3 (CC savings), Table 4 (branch usage) |
| `memory` | loads/stores vs idle data-memory slots (`free_cycle_pct`) | section 3.1 (free memory cycles, "close to 40%") |
| `pipeline` | words, pieces/word, load stalls, branch flush cycles | Tables 9-11 (pipeline scheduling), section 4.2 |
| `mix` | executed piece operations by name | Table 7/8 context (operation usage) |
| `system` | page-map translations/faults, DMA traffic | sections 3.1-3.2 (memory mapping, free-cycle DMA) |
| `engine` | fast-path compiles/bails/invalidations, dispatch counts (diagnostic only) | -- (excluded from cross-engine output) |

`mips-prof claims` re-asserts the paper's bands on the live counters
over the corpus (Table 1 coverage as floors, free cycles >= the
paper's 35% band edge, Table 3 savings <= 2%), and CI runs it on every
push -- so drifting off the paper's numbers fails the build instead of
rotting silently.

**Cycle-count gate.** The paper numbers above are checked for *shape*;
the reproduction's own cost is checked for *drift*.  The gate is
deterministic: `mips-prof cycles` re-simulates the quick Pascal and
MiniJava corpora and compares per-workload cycle/stall/memory counters
against the committed `PERF_BASELINE.json`, failing on any >2% growth
with the worst workload and counter named (`mips-prof update-baseline`
refreshes it after an intended change, and the diff is the reviewable
record).  Wall-clock speed is measured, not gated: every speed claim
names a `bench/run.py` command (see `bench/README.md`).

**Execution farm.** Every experiment above runs as one job on
`repro.farm`, the sharded batch-execution service behind
`mips-experiments --jobs N` and `mips-farm`.  Sharding never changes
the numbers: the serial path and the worker-pool path share the same
per-job executor, records come back in submission order regardless of
completion order, and the aggregate digest covers only the
run-invariant fields — so this file and every table in it are
byte-identical at any `--jobs` value.  CI's farm smoke job asserts
exactly that (`--jobs 2` versus `--jobs 1`).

**Chaos verification.** The recovery machinery the systems sections
rely on (surprise-register save/restore, forced supervisor entry,
three saved return addresses, double-fault panic) is exercised by
`mips-chaos`: seeded, deterministic fault-injection campaigns that
flip bits, drop page-map entries, storm interrupts, corrupt DMA
windows, and re-fault inside handlers, then verify the recovery
contract after every injection on both execution engines.  Campaign
results are reproducible byte-for-byte from the seed; CI's chaos
smoke job runs the shipped campaigns twice and compares the bytes.

**Differential fuzzing.** Every number above comes from engines and
optimization levels that `mips-fuzz` cross-checks adversarially:
seeded generators produce unbounded valid mini-Pascal programs
(wraparound edge-value arithmetic, nested control flow, procedures,
arrays) and raw instruction streams (branch/delay-slot corners,
immediate boundaries, packed pairs), and a differential oracle demands
bit-identical outcomes across the reference stepper and the threaded
fast path at every optimization level, plus CC-baseline output
equality and a sampled chaos schedule.  Case identity is pure
`(seed, index)`, batches are content-addressed farm jobs, and CI's
fuzz smoke job runs a fixed-seed batch at two parallelism levels and
asserts byte-identical records with zero divergences.  Failing cases
shrink to standalone repro artifacts replayable with
`mips-fuzz replay`.

**Second front end (MiniJava).** The tables above measure mini-Pascal;
`repro.mjlang` compiles an object-oriented language (classes,
inheritance, vtable dispatch, heap allocation) through the *same*
back end, and the corpus' three MiniJava workloads (`mj_list`,
`mj_tree`, `mj_shapes`) ride the same profiler and gates.  The OO mix
bends the paper's distributions without breaking them: immediate
constants skew even smaller than Pascal's (imm4 coverage averages
~97% versus ~87% across the quick corpus -- vtable slots and field
offsets are tiny integers), while virtual dispatch triples the
register-indirect jump fraction (~3.3% versus ~1.1% of executed
words) -- branches a condition code cannot help, which is the paper's
Table 3 argument from a direction the Pascal corpus never exercises.
Aggregated over both corpora the claims gate still holds (operator CC
savings stay under the 2% band; free data-memory cycles stay above
the 35% floor), and the `engine-differential` CI job holds the
second front end to the same oracle as the first: byte-identical
fingerprints, counters, and output across every engine and
optimization level.
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md on stdout from live measurements."
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="farm worker processes (the output is identical at any N)",
    )
    args = parser.parse_args(argv)
    print(HEADER)
    for result in run_named(list(REGISTRY), jobs=args.jobs):
        print(f"## {result.experiment_id}: {result.title}\n")
        print("| quantity | measured | paper |")
        print("|---|---|---|")
        keys = list(result.rows) + [k for k in result.paper if k not in result.rows]
        for key in keys:
            measured = result.rows.get(key)
            paper = result.paper.get(key)
            if isinstance(measured, str) and "\n" in measured:
                continue  # listings go below the table
            print(
                f"| {key} | {_fmt(measured) if measured is not None else '—'} "
                f"| {_fmt(paper) if paper is not None else '—'} |"
            )
        for key, value in result.rows.items():
            if isinstance(value, str) and "\n" in value:
                print(f"\n{key}:\n\n```")
                print(value.strip("\n"))
                print("```")
        if result.notes:
            print(f"\n*{result.notes}*")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
