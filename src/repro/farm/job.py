"""Job specifications for the simulation farm.

A :class:`Job` names one unit of batch work -- a corpus workload to
simulate, one of the paper's experiments, a fuzz batch -- together
with everything needed to execute it reproducibly: hazard mode,
optimization level, step budget, input queue.  Jobs are pure data (no
live objects), so they cross process boundaries cheaply and two
structurally-equal jobs hash to the same **stable key**, which is what
deduplication and the aggregate digest key on.

The farm never mutates a job.  The wall-clock budget and attempt cap
belong to the scheduler, and per-attempt state (attempt counter,
backoff deadline) lives there too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: job kinds the worker knows how to execute (see repro.farm.worker)
KIND_WORKLOAD = "workload"      # corpus program by name, compiled and simulated
KIND_EXPERIMENT = "experiment"  # one registered table/figure reproduction
KIND_FUZZ = "fuzz"              # differential-oracle fuzz batch

ALL_KINDS = (KIND_WORKLOAD, KIND_EXPERIMENT, KIND_FUZZ)


def _canonical(value: Any) -> Any:
    """A JSON-stable view of a spec value (tuples become lists)."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


@dataclass(frozen=True)
class Job:
    """One schedulable unit of simulation work.

    ``spec`` carries kind-specific parameters (register allocation
    flag, engine, profile request, fuzz range, ...); everything else is
    the common execution envelope.
    """

    kind: str
    name: str
    spec: Mapping[str, Any] = field(default_factory=dict)
    hazard_mode: str = "bare"
    opt_level: str = "branch-delay"
    max_steps: int = 30_000_000
    inputs: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r} (have {', '.join(ALL_KINDS)})")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "spec", dict(self.spec))

    @property
    def key(self) -> str:
        """A stable digest of everything that determines the result."""
        payload = json.dumps(
            {
                "kind": self.kind,
                "name": self.name,
                "spec": _canonical(self.spec),
                "hazard_mode": self.hazard_mode,
                "opt_level": self.opt_level,
                "max_steps": self.max_steps,
                "inputs": list(self.inputs),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """The wire form sent to workers (plain picklable data)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "spec": dict(self.spec),
            "hazard_mode": self.hazard_mode,
            "opt_level": self.opt_level,
            "max_steps": self.max_steps,
            "inputs": list(self.inputs),
            "key": self.key,
        }


def _engine_spec(engine: str) -> Dict[str, Any]:
    """Spec fragment selecting the simulation engine.

    The default engine ("fast") is omitted from the spec so every job
    key minted before engines existed stays stable -- keys are part of
    the stable view, so changing them would move every digest.
    """
    return {} if engine == "fast" else {"engine": engine}


def workload_jobs(
    names: Sequence[str],
    hazard_mode: str = "bare",
    opt_level: str = "branch-delay",
    max_steps: int = 30_000_000,
    register_allocation: bool = True,
    engine: str = "fast",
) -> Tuple[Job, ...]:
    """One simulation job per named corpus workload.

    ``engine`` selects the simulation engine ("fast" or "precise").
    """
    return tuple(
        Job(
            kind=KIND_WORKLOAD,
            name=name,
            spec={
                "register_allocation": register_allocation,
                **_engine_spec(engine),
            },
            hazard_mode=hazard_mode,
            opt_level=opt_level,
            max_steps=max_steps,
        )
        for name in names
    )


def profile_jobs(
    names: Sequence[str],
    top: Optional[int] = None,
    hazard_mode: str = "bare",
    opt_level: str = "branch-delay",
    max_steps: int = 30_000_000,
    engine: str = "fast",
) -> Tuple[Job, ...]:
    """Workload jobs with per-PC profiling enabled.

    The profile flag lives in the spec, so profile jobs are
    content-addressed separately from plain simulations of the same
    workload and the exported profiles shard like any result.
    """
    return tuple(
        Job(
            kind=KIND_WORKLOAD,
            name=name,
            spec={
                "register_allocation": True,
                "profile": top if top is not None else True,
                **_engine_spec(engine),
            },
            hazard_mode=hazard_mode,
            opt_level=opt_level,
            max_steps=max_steps,
        )
        for name in names
    )


def experiment_jobs(names: Sequence[str]) -> Tuple[Job, ...]:
    """One job per registered experiment (table/figure) name."""
    return tuple(Job(kind=KIND_EXPERIMENT, name=name) for name in names)


def fuzz_jobs(
    seed: int,
    cases: int,
    mode: str = "both",
    batch: int = 25,
    max_steps: int = 2_000_000,
    start: int = 0,
) -> Tuple[Job, ...]:
    """Contiguous fuzz-case batches as content-addressed jobs.

    Which cases a batch covers is a pure function of its spec (seed,
    start, count, mode), never of the parallelism that executes it, so
    the result set is byte-identical at any ``--jobs`` split.
    """
    from ..fuzz.batch import batch_ranges

    return tuple(
        Job(
            kind=KIND_FUZZ,
            name=f"fuzz-{mode}-s{seed}-b{start + r['start']:06d}",
            spec={
                "seed": seed,
                "start": start + r["start"],
                "count": r["count"],
                "mode": mode,
            },
            max_steps=max_steps,
        )
        for r in batch_ranges(cases, batch)
    )
