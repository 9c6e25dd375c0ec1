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
import os
import time
from typing import Any, Dict, Mapping, Optional

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
    if job["kind"] == "workload":
        # Named workloads dispatch by registry: the MiniJava corpus is
        # disjoint from the mini-Pascal one, so names stay unambiguous
        # and existing job keys are unchanged.
        if job["name"] in MINIJAVA_CORPUS:
            return compile_minijava(MINIJAVA_CORPUS[job["name"]], options, opt_level)
        source = CORPUS[job["name"]]
    else:
        source = spec["source"]
    return compile_source(source, options, opt_level=opt_level)


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


def _execute_asm(record: Dict[str, Any], job: Mapping[str, Any]) -> None:
    from ..asm.assembler import assemble

    spec = job.get("spec", {})
    program = assemble(spec["source"])
    machine = _build_machine(job, program)
    if spec.get("mapped"):
        # drive the on-chip segmentation unit: references between the
        # two valid regions now raise PageFault (the page-map fault path)
        machine.cpu.surprise.mapping_enabled = True
    _attach_profiler(job, machine)
    _run_machine(record, machine, job.get("max_steps", 30_000_000), spec.get("engine", "fast"))
    _export_profile(record, job, machine, program)


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


def _execute_dma(record: Dict[str, Any], job: Mapping[str, Any]) -> None:
    from ..analysis.freecycles import dma_throughput
    from ..workloads import CORPUS

    spec = job.get("spec", {})
    source = spec.get("source") or CORPUS[job["name"]]
    report = dma_throughput(source, transfer_words=spec.get("transfer_words", 4096))
    record["words"] = int(report["instruction_words"])
    record["extra"].update(report)


def _execute_bench(record: Dict[str, Any], job: Mapping[str, Any]) -> None:
    """One pytest-benchmark test in a fresh interpreter, stats captured."""
    import subprocess
    import sys
    import tempfile

    spec = job.get("spec", {})
    cwd = spec.get("cwd") or os.getcwd()
    env = dict(os.environ)
    pythonpath = spec.get("pythonpath")
    if pythonpath:
        env["PYTHONPATH"] = os.pathsep.join(
            list(pythonpath) + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = os.path.join(tmp, "benchmark.json")
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            f"{spec['file']}::{job['name']}",
            "--benchmark-only",
            "-q",
            f"--benchmark-json={raw_path}",
        ]
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            record["status"] = STATUS_ERROR
            record["error"] = {
                "type": "BenchmarkFailed",
                "message": (proc.stdout + proc.stderr)[-2000:],
                "returncode": proc.returncode,
            }
            return
        with open(raw_path) as fh:
            raw = json.load(fh)
    for entry in raw["benchmarks"]:
        if entry["name"] == job["name"]:
            stats = entry["stats"]
            record["extra"]["bench"] = {
                "mean_s": stats["mean"],
                "stddev_s": stats["stddev"],
                "rounds": stats["rounds"],
            }
            return
    record["status"] = STATUS_ERROR
    record["error"] = {
        "type": "BenchmarkMissing",
        "message": f"pytest produced no stats for {job['name']}",
    }


def _execute_chaos(record: Dict[str, Any], job: Mapping[str, Any], attempt: int, in_process: bool) -> None:
    """Chaos jobs: real injection campaigns, or the legacy failure probe.

    A spec with a ``campaign`` key runs a seeded fault-injection
    campaign (:mod:`repro.chaos`) and records its summary; the original
    probe form (``fail_attempts``/``mode``) deliberately misbehaves for
    the first N attempts to exercise the scheduler's retry machinery.
    """
    spec = job.get("spec", {})
    if "campaign" in spec:
        from ..chaos import run_campaign

        engines = tuple(spec.get("engines", ("fast", "precise")))
        summary = run_campaign(spec["campaign"], seed=int(spec.get("seed", 0)), engines=engines)
        first = summary["engines"][sorted(summary["engines"])[0]]
        record["cycles"] = first["final"]["cycles"]
        record["words"] = first["final"]["words"]
        record["fingerprint"] = first["final"]["digest"]
        record["extra"]["chaos"] = {
            "campaign": summary["campaign"],
            "seed": summary["seed"],
            "injections": len(summary["plan"]["injections"]),
            "outcome": first["outcome"],
            "violations": summary["violations"],
            "digest": summary["digest"],
        }
        if summary["violations"]:
            record["status"] = STATUS_ERROR
            record["error"] = {
                "type": "InvariantViolation",
                "message": (
                    f"{len(summary['violations'])} recovery-contract violations "
                    f"(replay: mips-chaos run --seed {summary['seed']} "
                    f"--campaign {summary['campaign']})"
                ),
            }
        return
    fail_attempts = int(spec.get("fail_attempts", 0))
    mode = spec.get("mode", "crash")
    if attempt <= fail_attempts:
        if mode == "crash":
            if in_process:
                raise RuntimeError("chaos crash requested in-process")
            os._exit(17)
        if mode == "hang":
            time.sleep(float(spec.get("hang_s", 3600.0)))
        record["status"] = STATUS_ERROR
        record["error"] = {"type": "ChaosError", "message": f"injected failure #{attempt}"}
        record["retryable"] = True
        return
    record["extra"]["succeeded_on_attempt"] = attempt


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
    "source": _execute_simulation,
    "asm": _execute_asm,
    "experiment": _execute_experiment,
    "dma": _execute_dma,
    "bench": _execute_bench,
    "fuzz": _execute_fuzz,
}


def execute_job(
    job: Mapping[str, Any], attempt: int = 1, in_process: bool = False
) -> Dict[str, Any]:
    """Execute one job; always returns a record, never raises.

    ``attempt`` is 1-based and threaded through so chaos jobs (and any
    future attempt-aware consumer) can observe the retry history;
    ``in_process`` is True on the scheduler's serial fallback path,
    where deliberately crashing the interpreter would take the whole
    farm down.
    """
    record = _base_record(job, attempt)
    started = time.perf_counter()
    try:
        if job["kind"] == "chaos":
            _execute_chaos(record, job, attempt, in_process)
        else:
            _EXECUTORS[job["kind"]](record, job)
    except Exception as exc:  # toolchain/harness errors become records
        record["status"] = STATUS_ERROR
        record["error"] = _error_info(exc)
    record["wall_s"] = time.perf_counter() - started
    return record


def _note_chaos_replay(record: Dict[str, Any], job: Mapping[str, Any], attempt: int) -> None:
    """Make a dead chaos job replayable: pin the seed and attempt count.

    A worker that dies mid-campaign leaves no result, so the failure
    record itself must carry everything needed to reproduce the run
    (``mips-chaos run --seed N --campaign X``) and how many attempts
    were burned getting there.
    """
    record["error"]["attempt"] = attempt
    spec = job.get("spec", {})
    if job.get("kind") == "chaos" and "campaign" in spec:
        record["extra"]["chaos_seed"] = spec.get("seed", 0)
        record["extra"]["campaign"] = spec["campaign"]
        record["error"]["message"] += (
            f" (chaos attempt {attempt}; replay: mips-chaos run "
            f"--seed {spec.get('seed', 0)} --campaign {spec['campaign']})"
        )


def crash_record(job: Mapping[str, Any], attempt: int, detail: str) -> Dict[str, Any]:
    """The scheduler-side record for a worker that died mid-job."""
    record = _base_record(job, attempt)
    record["status"] = STATUS_CRASH
    record["error"] = {"type": "WorkerCrash", "message": detail}
    record["retryable"] = True
    _note_chaos_replay(record, job, attempt)
    return record


def wall_timeout_record(job: Mapping[str, Any], attempt: int, budget_s: float) -> Dict[str, Any]:
    """The scheduler-side record for a job that blew its wall-clock budget."""
    record = _base_record(job, attempt)
    record["status"] = STATUS_TIMEOUT
    record["error"] = {
        "type": "WallTimeout",
        "message": f"job exceeded its {budget_s:.1f}s wall-clock budget",
    }
    record["retryable"] = True
    _note_chaos_replay(record, job, attempt)
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


#: consumers sometimes want a typed view; keep it lightweight
class JobResult:
    """Attribute access over a result record dict."""

    __slots__ = ("record",)

    def __init__(self, record: Mapping[str, Any]):
        self.record = dict(record)

    def __getattr__(self, item: str) -> Any:
        try:
            return self.record[item]
        except KeyError as exc:  # pragma: no cover - programming error
            raise AttributeError(item) from exc

    @property
    def ok(self) -> bool:
        return self.record["status"] == STATUS_OK

    def __repr__(self) -> str:
        return (
            f"<JobResult {self.record['name']} {self.record['status']} "
            f"cycles={self.record['cycles']} attempt={self.record['attempt']}>"
        )
