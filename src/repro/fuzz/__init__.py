"""Property-based scenario fuzzing with a cross-engine differential oracle.

The paper's tradeoffs -- threaded dispatch, CC elimination, immediate
selection, branch reorganization -- all claim to preserve semantics
while buying performance.  This package tests that claim adversarially
instead of against a fixed corpus: seeded generators produce unbounded
valid scenarios at two levels (mini-Pascal programs via
:mod:`repro.fuzz.astgen`, raw instruction streams via
:mod:`repro.fuzz.wordgen`), and the differential oracle
(:mod:`repro.fuzz.oracle`) runs every case through each engine pair we
have: reference vs fast path, every optimization level, the CC
baseline where the program compiles for it, and a sampled chaos fault
schedule with the recovery-contract checker armed.

Failures shrink (:mod:`repro.fuzz.minimize`) and land as standalone
repro artifacts (:mod:`repro.fuzz.artifacts`).  Batches are
content-addressed farm jobs (:mod:`repro.fuzz.batch`), so campaigns
scale over ``--jobs`` with byte-identical records at any parallelism.
"""

from .batch import DEFAULT_BATCH, batch_ranges, run_batch
from .case import (
    MODE_AST,
    MODE_BOTH,
    MODE_MINIJAVA,
    MODE_WORDS,
    MODES,
    FuzzCase,
    make_case,
)
from .minimize import minimize_case
from .oracle import (
    CheckResult,
    check_case,
    check_source,
    check_word_source,
)

__all__ = [
    "DEFAULT_BATCH",
    "batch_ranges",
    "run_batch",
    "MODE_AST",
    "MODE_BOTH",
    "MODE_MINIJAVA",
    "MODE_WORDS",
    "MODES",
    "FuzzCase",
    "make_case",
    "minimize_case",
    "CheckResult",
    "check_case",
    "check_source",
    "check_word_source",
]
