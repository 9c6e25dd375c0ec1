"""The differential oracle: one case, every engine pair we have.

For a mini-Pascal case the oracle compiles the source at **every
optimization level** and runs each image on both engines (reference
stepper, threaded fast path), demanding bit-identical observations --
status, state fingerprint, full counter set, integer output, character
output -- per level; across levels it demands identical program
*output* (counters legitimately differ when the reorganizer does its
job).  Where the CC-baseline compiler supports
the program, the :mod:`repro.ccmachine` output must match too -- the
paper's CC-elimination argument, checked program by program.  A sampled
subset of cases additionally runs under a seeded chaos fault schedule
on both fast and precise engines with the
:class:`~repro.chaos.invariants.RecoveryContractChecker` armed: final
digests must agree and the recovery contract must hold.  A MiniJava
case runs the same legs except the CC baseline.

For an instruction-stream case the oracle assembles the source once
and runs both engines.  Guest faults and step-budget timeouts are
*contract outcomes* -- legal, but only if every engine reports exactly
the same one; any exception outside that contract is a failure on the
spot.

Divergences are data, not exceptions: the oracle returns them in a
:class:`CheckResult` whose digest covers every observation it made, so
a batch of results is byte-comparable across hosts and parallelism.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..farm.worker import _error_info, _stats_dict, fingerprint_digest

#: optimization levels every AST case is compiled at
OPT_LEVELS = ("none", "reorganize", "pack", "branch-delay")
#: the reference engine first: every other engine is compared with it
ENGINES = ("precise", "fast")
#: 1-in-N cases also run the chaos fault schedule
CHAOS_SAMPLE = 8
#: step ceiling for fault-injected runs: an injection that knocks a
#: program into a spin loop should cost a bounded, engine-identical
#: timeout, not the full differential budget on the precise stepper
CHAOS_MAX_STEPS = 200_000

#: test fixture hook: ``hook(source, engine) -> bool`` -- when it
#: returns True the oracle corrupts that engine's observation, planting
#: a divergence the detect -> minimize -> artifact pipeline must catch.
#: Never set outside tests.
DIVERGENCE_HOOK: Optional[Callable[[str, str], bool]] = None


@dataclass
class CheckResult:
    """Everything the oracle observed about one case."""

    mode: str
    status: str = "ok"                  # ok | divergence | error
    divergences: List[Dict[str, Any]] = field(default_factory=list)
    observations: Dict[str, Any] = field(default_factory=dict)
    cc_checked: bool = False
    chaos_checked: bool = False

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def diverge(self, check: str, detail: Dict[str, Any]) -> None:
        self.status = "divergence"
        self.divergences.append({"check": check, **detail})

    @property
    def digest(self) -> str:
        payload = json.dumps(
            {
                "mode": self.mode,
                "status": self.status,
                "divergences": self.divergences,
                "observations": self.observations,
                "cc": self.cc_checked,
                "chaos": self.chaos_checked,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _observe(program, engine: str, max_steps: int, source: str) -> Dict[str, Any]:
    """Run one engine over a fresh machine; fold the outcome into data."""
    from ..sim.faults import MachineFault
    from ..sim.machine import Machine

    machine = Machine(program)
    status, error = "ok", None
    try:
        machine.run(max_steps, fast=engine != "precise")
    except TimeoutError as exc:
        status, error = "timeout", _error_info(exc)
    except MachineFault as exc:
        status, error = "fault", _error_info(exc)
    observation = {
        "status": status,
        "error": error,
        "fingerprint": fingerprint_digest(machine.cpu),
        "stats": _stats_dict(machine.cpu.stats),
        "output": list(machine.output),
        "output_text": machine.output_text,
    }
    if DIVERGENCE_HOOK is not None and DIVERGENCE_HOOK(source, engine):
        observation["output"] = observation["output"] + ["planted"]
        observation["fingerprint"] = "planted-divergence"
    return observation


def _compare_engines(
    result: CheckResult, label: str, per_engine: Dict[str, Dict[str, Any]]
) -> None:
    reference = per_engine[ENGINES[0]]
    for engine in ENGINES[1:]:
        if per_engine[engine] != reference:
            keys = [
                k for k in reference
                if per_engine[engine].get(k) != reference.get(k)
            ]
            result.diverge(
                "engine",
                {
                    "where": label,
                    "engines": [ENGINES[0], engine],
                    "fields": keys,
                },
            )


def _chaos_plan(seed: int, index: int, code_size: int):
    """A small seeded bitflip schedule scaled to the program."""
    import random

    from ..chaos.plan import injection, make_plan

    rng = random.Random((seed * 1_000_003 + index) ^ 0xC4A05)
    injections = []
    for _ in range(3):
        injections.append(
            injection(
                rng.randrange(5, 200),
                "reg-flip",
                reg=rng.choice([1, 6, 7, 8, 9]),
                bit=rng.randrange(0, 16),
            )
        )
    injections.append(
        injection(
            rng.randrange(5, 200),
            "mem-flip",
            addr=rng.randrange(0, max(code_size, 1)),
            bit=rng.randrange(0, 32),
        )
    )
    return make_plan(seed, f"fuzz-{index}", injections)


def _check_chaos(
    result: CheckResult, program, seed: int, index: int, max_steps: int
) -> None:
    """The sampled fault schedule: fast vs precise under injections."""
    from ..chaos.engine import run_plan
    from ..sim.machine import Machine

    plan = _chaos_plan(seed, index, len(program.instructions))
    finals = {}
    for engine in ("precise", "fast"):
        run = run_plan(
            Machine(program),
            plan,
            fast=engine != "precise",
            max_steps=min(max_steps, CHAOS_MAX_STEPS),
        )
        finals[engine] = run.final
        if run.violations:
            result.diverge(
                "recovery-contract",
                {"engine": engine, "violations": run.violations},
            )
    if finals["fast"] != finals["precise"]:
        result.diverge("chaos-engine", {"finals": finals})
    result.observations["chaos"] = finals["precise"]
    result.chaos_checked = True


def _compile(mode: str, source: str, level: str):
    from ..reorg.reorganizer import OptLevel

    if mode == "ast":
        from ..compiler.driver import compile_source

        return compile_source(source, opt_level=OptLevel(level))
    from ..mjlang import compile_minijava

    return compile_minijava(source, opt_level=OptLevel(level))


def _check_compiled_source(
    mode: str,
    source: str,
    *,
    seed: int,
    index: int,
    max_steps: int,
    chaos: bool,
) -> CheckResult:
    """The oracle for one mini-Pascal (``ast``) or MiniJava source text.

    Every optimization level runs on both engines, with bit-identical
    observations per level and identical output across levels.  Then
    the CC baseline must match, for mini-Pascal only: the CC machine
    compiles no MiniJava.  Last comes the sampled chaos schedule.
    """
    from ..ccmachine import CcCompileError, CcMachine, compile_cc_source

    result = CheckResult(mode=mode)
    outputs: Dict[str, Any] = {}
    chaos_program = None
    for level in OPT_LEVELS:
        try:
            compiled = _compile(mode, source, level)
        except Exception as exc:
            result.status = "error"
            result.observations[level] = {"compile_error": _error_info(exc)}
            result.diverge("compile", {"level": level, "error": _error_info(exc)})
            return result
        per_engine = {
            engine: _observe(compiled.program, engine, max_steps, source)
            for engine in ENGINES
        }
        _compare_engines(result, level, per_engine)
        reference = per_engine[ENGINES[0]]
        if reference["status"] != "ok":
            # a generated program must halt cleanly: anything else is a
            # generator or toolchain bug worth surfacing
            result.diverge(
                f"{mode}-outcome", {"level": level, "status": reference["status"],
                                    "error": reference["error"]}
            )
        outputs[level] = {
            "output": reference["output"],
            "output_text": reference["output_text"],
        }
        result.observations[level] = {
            "fingerprint": reference["fingerprint"],
            "cycles": reference["stats"]["cycles"],
            "words": reference["stats"]["words"],
            **outputs[level],
        }
        if level == "branch-delay":
            chaos_program = compiled.program
    baseline = outputs[OPT_LEVELS[0]]
    for level in OPT_LEVELS[1:]:
        if outputs[level] != baseline:
            result.diverge(
                "opt-level", {"levels": [OPT_LEVELS[0], level],
                              "outputs": [baseline, outputs[level]]}
            )
    if mode == "minijava":
        result.observations["cc"] = {"skipped": "minijava has no CC baseline"}
    else:
        try:
            cc_program = compile_cc_source(source)
        except CcCompileError as exc:
            result.observations["cc"] = {"skipped": str(exc)}
        else:
            cc = CcMachine(cc_program)
            try:
                cc.run(max_steps)
            except Exception as exc:
                # the MIPS side ran this program cleanly; the CC baseline
                # failing on it is itself a divergence, not a skip
                result.diverge("cc-run", {"error": _error_info(exc)})
            else:
                cc_out = {"output": list(cc.output), "output_text": cc.output_text}
                result.cc_checked = True
                result.observations["cc"] = cc_out
                if cc_out != baseline:
                    result.diverge("cc-baseline", {"cc": cc_out, "mips": baseline})
    if chaos and chaos_program is not None:
        _check_chaos(result, chaos_program, seed, index, max_steps)
    return result


def check_word_source(source: str, *, max_steps: int = 200_000) -> CheckResult:
    """The oracle for one raw instruction stream."""
    from ..asm.assembler import assemble

    result = CheckResult(mode="words")
    try:
        program = assemble(source)
    except Exception as exc:
        result.status = "error"
        result.diverge("assemble", {"error": _error_info(exc)})
        return result
    per_engine = {
        engine: _observe(program, engine, max_steps, source) for engine in ENGINES
    }
    _compare_engines(result, "words", per_engine)
    reference = per_engine[ENGINES[0]]
    result.observations["words"] = {
        "status": reference["status"],
        "fingerprint": reference["fingerprint"],
        "cycles": reference["stats"]["cycles"],
        "words": reference["stats"]["words"],
        "output": reference["output"],
        "error": reference["error"],
    }
    return result


def check_source(
    mode: str,
    source: str,
    *,
    seed: int = 0,
    index: int = 0,
    max_steps: int = 2_000_000,
    chaos: bool = False,
) -> CheckResult:
    """Run the oracle for ``mode`` (``ast``, ``minijava`` or ``words``) on ``source``."""
    if mode == "words":
        return check_word_source(source, max_steps=min(max_steps, 200_000))
    return _check_compiled_source(
        mode, source, seed=seed, index=index, max_steps=max_steps, chaos=chaos
    )


def check_case(case, *, max_steps: int = 2_000_000) -> CheckResult:
    """Check a :class:`~repro.fuzz.case.FuzzCase`.

    Every ``CHAOS_SAMPLE``-th case also runs the chaos schedule.
    """
    return check_source(
        case.mode,
        case.source,
        seed=case.seed,
        index=case.index,
        max_steps=max_steps,
        chaos=case.index % CHAOS_SAMPLE == 0,
    )
