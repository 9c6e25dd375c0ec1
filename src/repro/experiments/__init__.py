"""Reproductions of every table and figure in the paper's evaluation.

Experiments execute through :mod:`repro.farm`: each table/figure is one
farm job, so ``run_all(jobs=4)`` shards the evaluation across worker
processes while producing exactly the serial results (the registry
order is the submission order, and the farm returns records in
submission order regardless of completion order).
"""

from typing import Callable, Dict, List, Sequence

from .base import ExperimentResult
from .figures import figure1, figure2, figure3, figure4
from .free_cycles import free_cycles
from .tables import (
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
)

#: every experiment, in paper order
REGISTRY: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "table10": table10,
    "table11": table11,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "free_cycles": free_cycles,
}


def run_named(
    names: Sequence[str],
    jobs: int = 1,
    store=None,
) -> List[ExperimentResult]:
    """Run the named experiments through the farm, in the given order.

    ``jobs=1`` (the default) degrades to in-process serial execution --
    the identical code path, so results match at any job count.  A
    failed experiment raises with the worker's structured error rather
    than returning a partial list.
    """
    from ..farm import Scheduler, experiment_jobs

    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments: {', '.join(unknown)}")
    records = Scheduler(jobs=jobs, store=store).run(experiment_jobs(names))
    results: List[ExperimentResult] = []
    for record in records:
        payload = record.get("payload")
        if record["status"] != "ok" or payload is None:
            error = record.get("error") or {}
            raise RuntimeError(
                f"experiment {record['name']} failed "
                f"[{record['status']}] {error.get('type', '')}: {error.get('message', '')}"
            )
        results.append(payload)
    return results


def run_all(jobs: int = 1, store=None) -> List[ExperimentResult]:
    """Run every experiment (tables first, then figures)."""
    return run_named(list(REGISTRY), jobs=jobs, store=store)


__all__ = [
    "ExperimentResult",
    "REGISTRY",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "free_cycles",
    "run_all",
    "run_named",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
]
