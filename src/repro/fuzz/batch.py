"""Fuzz batches: contiguous case ranges as content-addressed farm jobs.

A batch is ``(seed, start, count, mode)`` -- which cases it covers is a
pure function of the spec, never of how the run was sharded.  Each case
contributes a digest over everything its oracle observed, and the batch
digest folds them in index order, so ``--jobs 1`` and ``--jobs 8``
produce byte-identical batch records.  Divergent
cases ride along in the batch summary with their one-line replay
command; the batch status only degrades when a real divergence (or a
harness error) appears.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from .case import case_mode, make_case
from .oracle import check_case

#: default per-batch case count when sharding a run into jobs
DEFAULT_BATCH = 25


def run_batch(
    seed: int,
    start: int,
    count: int,
    mode: str,
    *,
    max_steps: int = 2_000_000,
) -> Dict[str, Any]:
    """Generate and oracle-check cases ``start .. start+count-1``."""
    cases: List[Dict[str, Any]] = []
    divergences: List[Dict[str, Any]] = []
    for index in range(start, start + count):
        case = make_case(seed, index, mode)
        try:
            result = check_case(case, max_steps=max_steps)
            entry = {
                "index": index,
                "mode": case.mode,
                "status": result.status,
                "digest": result.digest,
            }
            failing = result.failed
            details = result.divergences
        except Exception as exc:  # harness bug: counts as a failure
            entry = {
                "index": index,
                "mode": case.mode,
                "status": "error",
                "digest": "harness-error",
            }
            failing = True
            details = [
                {"check": "harness", "type": type(exc).__name__, "message": str(exc)}
            ]
        cases.append(entry)
        if failing:
            divergences.append(
                {
                    "index": index,
                    "mode": case.mode,
                    "name": case.name,
                    "divergences": details,
                    "replay": case.replay_command,
                }
            )
    digest = hashlib.sha256(
        "".join(f"{c['index']}:{c['digest']}" for c in cases).encode()
    ).hexdigest()[:16]
    return {
        "seed": seed,
        "start": start,
        "count": count,
        "mode": mode,
        "cases": cases,
        "divergences": divergences,
        "digest": digest,
    }


def batch_ranges(cases: int, batch: int) -> List[Dict[str, int]]:
    """Split ``cases`` into contiguous ``batch``-sized ranges."""
    if cases <= 0:
        return []
    batch = max(1, batch)
    return [
        {"start": start, "count": min(batch, cases - start)}
        for start in range(0, cases, batch)
    ]


def case_modes(mode: str, cases: int) -> Dict[str, int]:
    """How many cases of each concrete mode a run will generate."""
    counts: Dict[str, int] = {}
    for index in range(cases):
        concrete = case_mode(mode, index)
        counts[concrete] = counts.get(concrete, 0) + 1
    return counts
