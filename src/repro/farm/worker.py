"""Job execution: what runs inside a farm worker process.

:func:`execute_job` is a pure function from a job's wire dict to a
result record (also a plain dict).  Everything a consumer could want is
in the record: cycle counts, the full :class:`~repro.sim.cpu.CpuStats`,
a state fingerprint digest (from :mod:`repro.sim.tracing`), program
output, wall time, and -- for failed jobs -- a structured error with
the machine-level cause.  Guest failures (page faults, bus errors,
step-budget exhaustion) are *results*, not worker crashes: the worker
records them and stays healthy for the next job.

The same function runs in-process when the scheduler degrades to
serial execution, so parallel and serial runs share one code path and
produce identical records (minus wall-clock noise).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Mapping

#: statuses a record can carry
STATUS_OK = "ok"
STATUS_FAULT = "fault"        # guest machine fault (structured, deterministic)
STATUS_TIMEOUT = "timeout"    # step budget or wall-clock budget exhausted
STATUS_ERROR = "error"        # toolchain or harness error
STATUS_CRASH = "crash"        # worker process died (recorded by the scheduler)


def _json_safe(value: Any) -> Any:
    """Recursively coerce a value into JSON-representable types."""
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def fingerprint_digest(cpu) -> str:
    """A short stable digest of the CPU's observable state."""
    from ..sim.tracing import state_fingerprint

    payload = json.dumps(_json_safe(state_fingerprint(cpu)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _stats_dict(stats) -> Dict[str, Any]:
    return {
        "cycles": stats.cycles,
        "words": stats.words,
        "pieces": stats.pieces,
        "noops": stats.noops,
        "loads": stats.loads,
        "stores": stats.stores,
        "branches": stats.branches,
        "branches_taken": stats.branches_taken,
        "memory_cycles_used": stats.memory_cycles_used,
        "free_memory_cycles": stats.free_memory_cycles,
        "load_stalls": stats.load_stalls,
        "branch_flush_cycles": stats.branch_flush_cycles,
        "exceptions": stats.exceptions,
    }


def _base_record(job: Mapping[str, Any], attempt: int) -> Dict[str, Any]:
    return {
        "key": job.get("key", ""),
        "kind": job["kind"],
        "name": job["name"],
        "status": STATUS_OK,
        "attempt": attempt,
        "cycles": 0,
        "words": 0,
        "stats": None,
        "fingerprint": None,
        "output": [],
        "output_text": "",
        "rendered": None,
        "wall_s": 0.0,
        "error": None,
        "retryable": False,
        "extra": {},
        "payload": None,
    }


def _error_info(exc: BaseException) -> Dict[str, Any]:
    info: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    cause = getattr(exc, "cause", None)
    if cause is not None:
        info["cause"] = getattr(cause, "name", repr(cause))
    minor = getattr(exc, "minor", None)
    if minor is not None:
        info["minor"] = minor
    address = getattr(exc, "address", None)
    if address is not None:
        info["address"] = address
    from ..sim.faults import KernelPanic

    if isinstance(exc, KernelPanic):
        info["panic"] = exc.record()
    return info


#: engine names a job spec may select (default "fast"; "precise" is the
#: per-step reference loop)
ENGINES = ("fast", "precise")


def _engine_args(engine: str) -> Dict[str, bool]:
    """Map an engine name onto Machine.run keyword arguments."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (have {', '.join(ENGINES)})")
    return {"fast": engine != "precise"}


def _run_machine(record: Dict[str, Any], machine, max_steps: int, engine: str = "fast") -> None:
    """Run a loaded machine, folding faults into the record."""
    from ..sim.faults import MachineFault

    try:
        machine.run(max_steps, **_engine_args(engine))
    except TimeoutError as exc:
        record["status"] = STATUS_TIMEOUT
        record["error"] = _error_info(exc)
    except MachineFault as exc:
        record["status"] = STATUS_FAULT
        record["error"] = _error_info(exc)
    stats = machine.stats
    record["cycles"] = stats.cycles
    record["words"] = stats.words
    record["stats"] = _stats_dict(stats)
    record["fingerprint"] = fingerprint_digest(machine.cpu)
    record["output"] = list(machine.output)
    record["output_text"] = machine.output_text


def _build_machine(job: Mapping[str, Any], program):
    from ..sim.cpu import HazardMode
    from ..sim.machine import Machine

    return Machine(
        program,
        hazard_mode=HazardMode(job.get("hazard_mode", "bare")),
        inputs=list(job.get("inputs", ())),
    )


def _compile_workload(job: Mapping[str, Any]):
    from ..compiler.codegen_mips import CompileOptions
    from ..compiler.driver import compile_source
    from ..mjlang import compile_minijava
    from ..reorg.reorganizer import OptLevel
    from ..workloads import CORPUS, MINIJAVA_CORPUS

    spec = job.get("spec", {})
    options = CompileOptions(
        register_allocation=spec.get("register_allocation", True),
    )
    opt_level = OptLevel(job.get("opt_level", "branch-delay"))
    # Named workloads dispatch by registry: the MiniJava corpus is
    # disjoint from the mini-Pascal one, so names stay unambiguous and
    # existing job keys are unchanged.
    if job["name"] in MINIJAVA_CORPUS:
        return compile_minijava(MINIJAVA_CORPUS[job["name"]], options, opt_level)
    return compile_source(CORPUS[job["name"]], options, opt_level=opt_level)


def _attach_profiler(job: Mapping[str, Any], machine):
    """Attach a profiler when the job's spec asks for one.

    ``spec["profile"]`` is truthy to enable; an integer limits the
    hot-spot list to that many entries (default: full attribution).
    """
    if not job.get("spec", {}).get("profile"):
        return None
    from ..perf.profiler import Profiler

    return Profiler().attach(machine.cpu)


def _export_profile(record: Dict[str, Any], job: Mapping[str, Any], machine, program) -> None:
    """Store the deterministic profile in the record, if one was asked for."""
    if machine.cpu.profiler is None:
        return
    from ..perf.report import build_profile

    requested = job.get("spec", {}).get("profile")
    top = requested if isinstance(requested, int) and not isinstance(requested, bool) else None
    record["extra"]["profile"] = build_profile(
        machine.cpu, program, top=top, name=job["name"]
    )


def _execute_simulation(record: Dict[str, Any], job: Mapping[str, Any]) -> None:
    compiled = _compile_workload(job)
    machine = _build_machine(job, compiled.program)
    record["extra"]["static_words"] = compiled.static_count
    _attach_profiler(job, machine)
    engine = job.get("spec", {}).get("engine", "fast")
    _run_machine(record, machine, job.get("max_steps", 30_000_000), engine)
    _export_profile(record, job, machine, compiled.program)


def _execute_experiment(record: Dict[str, Any], job: Mapping[str, Any]) -> None:
    from ..experiments import REGISTRY

    name = job["name"]
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}")
    result = REGISTRY[name]()
    record["rendered"] = result.render()
    record["extra"]["experiment_id"] = result.experiment_id
    record["extra"]["title"] = result.title
    record["payload"] = result


def _execute_fuzz(record: Dict[str, Any], job: Mapping[str, Any]) -> None:
    """One differential-oracle fuzz batch (see :mod:`repro.fuzz`).

    The record's fingerprint is the batch digest -- a pure function of
    (seed, start, count, mode) -- so identical batches executed under
    any sharding produce identical records.  A batch
    containing divergences becomes a non-retryable error record whose
    message carries the first case's one-line replay command.
    """
    from ..fuzz.batch import run_batch

    spec = job.get("spec", {})
    summary = run_batch(
        int(spec["seed"]),
        int(spec["start"]),
        int(spec["count"]),
        spec.get("mode", "both"),
        max_steps=job.get("max_steps", 2_000_000),
    )
    record["words"] = summary["count"]
    record["fingerprint"] = summary["digest"]
    record["extra"]["fuzz"] = {
        "seed": summary["seed"],
        "start": summary["start"],
        "count": summary["count"],
        "mode": summary["mode"],
        "cases": summary["cases"],
        "divergences": summary["divergences"],
    }
    if summary["divergences"]:
        first = summary["divergences"][0]
        record["status"] = STATUS_ERROR
        record["error"] = {
            "type": "FuzzDivergence",
            "message": (
                f"{len(summary['divergences'])} divergent case(s); first is "
                f"case {first['index']} ({first['mode']}); "
                f"replay: {first['replay']}"
            ),
        }


_EXECUTORS = {
    "workload": _execute_simulation,
    "experiment": _execute_experiment,
    "fuzz": _execute_fuzz,
}


def execute_job(job: Mapping[str, Any], attempt: int = 1) -> Dict[str, Any]:
    """Execute one job; always returns a record, never raises.

    ``attempt`` is 1-based; the record carries it so a retried job's
    history is visible.
    """
    record = _base_record(job, attempt)
    started = time.perf_counter()
    try:
        _EXECUTORS[job["kind"]](record, job)
    except Exception as exc:  # toolchain/harness errors become records
        record["status"] = STATUS_ERROR
        record["error"] = _error_info(exc)
    record["wall_s"] = time.perf_counter() - started
    return record


def crash_record(job: Mapping[str, Any], attempt: int, detail: str) -> Dict[str, Any]:
    """The scheduler-side record for a worker that died mid-job."""
    record = _base_record(job, attempt)
    record["status"] = STATUS_CRASH
    record["error"] = {"type": "WorkerCrash", "message": detail, "attempt": attempt}
    record["retryable"] = True
    return record


def wall_timeout_record(job: Mapping[str, Any], attempt: int, budget_s: float) -> Dict[str, Any]:
    """The scheduler-side record for a job that blew its wall-clock budget."""
    record = _base_record(job, attempt)
    record["status"] = STATUS_TIMEOUT
    record["error"] = {
        "type": "WallTimeout",
        "message": f"job exceeded its {budget_s:.1f}s wall-clock budget",
        "attempt": attempt,
    }
    record["retryable"] = True
    return record


def strip_payload(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of the record without the in-memory payload object."""
    slim = dict(record)
    slim.pop("payload", None)
    return slim


def json_safe_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The record as it appears on a JSON-lines stream."""
    slim = {k: v for k, v in record.items() if k != "payload"}
    return _json_safe(slim)
