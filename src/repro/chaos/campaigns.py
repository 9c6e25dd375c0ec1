"""Shipped chaos campaigns: scenario + plan builder + expectations.

Each campaign pairs a deterministic scenario (a bare :class:`Machine`
or a full :class:`Kernel` with processes) with a seeded plan builder
and an *expectation* describing what recovery must look like:

``recovered``
    the machine still halts, and every process the chaos did not
    deliberately kill produces byte-identical output to an uninjected
    baseline run -- the paper's isolation claim, checked end to end;
``differential``
    outcomes may legitimately change (bit flips corrupt real state),
    so the contract is determinism itself: fastpath and precise
    execution must agree bit-for-bit on every record;
``panic``
    the plan ends in a double fault, and the machine must die with a
    structured PANIC record instead of silent state loss.

On top of the per-campaign expectation, every campaign checks the
recovery-contract invariants (:mod:`repro.chaos.invariants`) on every
surprise sequence, and -- when both engines run -- the full cross-engine
differential (per-injection records, final state, outputs).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..farm.worker import ENGINES, _base_record, _json_safe, fingerprint_digest
from .engine import ChaosRun, _collect_outputs, run_plan
from .invariants import check_panic_record
from .plan import ChaosPlan, injection, make_plan, plan_rng

# ---------------------------------------------------------------------------
# scenario programs
# ---------------------------------------------------------------------------


def _counting_source(base: int, rounds: int) -> str:
    """Writes base+0 .. base+rounds-1 to the console, then exits."""
    return f"""
start:  mov #0, r8
        lim #{rounds}, r9
        lim #{base}, r2
loop:   add r2, r8, r1
        trap #1
        add r8, #1, r8
        blo r8, r9, loop
        nop
        trap #0
"""


def _paging_source(salt: int, pages: int) -> str:
    """Writes a word per page across ``pages`` pages, reads them back,
    and prints the checksum -- demand-paging pressure with a verifiable
    answer."""
    return f"""
start:  lim #4096, r10
        lim #256, r11
        movi #{salt}, r12
        mov #0, r8
        movi #{pages}, r9
wloop:  add r8, r12, r7
        st r7, 0(r10)
        add r10, r11, r10
        add r8, #1, r8
        blo r8, r9, wloop
        nop
        lim #4096, r10
        mov #0, r8
        mov #0, r7
rloop:  ld 0(r10), r6
        nop
        add r7, r6, r7
        add r10, r11, r10
        add r8, #1, r8
        blo r8, r9, rloop
        nop
        add r7, #0, r1
        trap #1
        trap #0
"""


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


class Campaign:
    """One named chaos scenario; subclasses fill in target and plan."""

    name: str = ""
    description: str = ""
    expects: str = "recovered"
    max_steps: int = 300_000

    def make_target(self):
        raise NotImplementedError

    def build_plan(self, seed: int, baseline_steps: int) -> ChaosPlan:
        raise NotImplementedError

    def _boundaries(
        self, rng, count: int, baseline_steps: int, lo: int = 60, frac: float = 0.85
    ):
        """``count`` distinct injection boundaries inside the live run.

        ``frac`` caps the window as a fraction of the uninjected
        baseline; campaigns whose injections *shorten* the run (killed
        processes) pass a smaller fraction so late boundaries stay
        reachable.
        """
        hi = max(lo + count + 1, int(baseline_steps * frac))
        steps = set()
        while len(steps) < count:
            steps.add(rng.randrange(lo, hi))
        return sorted(steps)


class BitflipCampaign(Campaign):
    name = "bitflips"
    description = (
        "register/memory bit flips and mid-flight DMA corruption on the "
        "bare machine; contract: fastpath and precise execution stay "
        "bit-identical whatever the flips do, and DMA corruption stays "
        "confined to its window"
    )
    expects = "differential"
    max_steps = 60_000
    _ROUNDS = 300
    _DMA_SRC = 0x200000
    _DMA_DST = 0x210000

    def _program(self):
        from ..asm import assemble

        return assemble(_counting_source(1000, self._ROUNDS))

    def make_target(self):
        from ..sim.machine import Machine

        return Machine(self._program())

    def build_plan(self, seed: int, baseline_steps: int) -> ChaosPlan:
        rng = plan_rng(seed)
        code_size = self._program().code_size
        injections = []
        steps = self._boundaries(rng, 10, baseline_steps)
        for step in steps[:6]:
            injections.append(
                injection(
                    step,
                    "reg-flip",
                    reg=rng.choice([1, 6, 7, 8, 9, 10]),
                    bit=rng.randrange(0, 16),
                )
            )
        for step in steps[6:9]:
            injections.append(
                injection(
                    step,
                    "mem-flip",
                    addr=rng.randrange(0, code_size),
                    bit=rng.randrange(0, 32),
                )
            )
        length = 64
        injections.append(
            injection(
                steps[9],
                "dma-corrupt",
                src=self._DMA_SRC,
                dst=self._DMA_DST,
                length=length,
                flip_at=rng.randrange(1, length - 1),
                bit=rng.randrange(0, 32),
            )
        )
        return make_plan(seed, self.name, injections)


class _KernelCampaign(Campaign):
    """Shared scaffolding for kernel scenarios."""

    quantum = 0
    max_frames: Optional[int] = None

    def _sources(self) -> Sequence[str]:
        raise NotImplementedError

    def make_target(self):
        from ..asm import assemble
        from ..system.kernel import Kernel

        kernel = Kernel(quantum=self.quantum, max_frames=self.max_frames)
        for source in self._sources():
            kernel.add_process(assemble(source))
        kernel.boot()
        return kernel


class InterruptStormCampaign(_KernelCampaign):
    name = "interrupt-storm"
    description = (
        "spurious interrupts (no pending source) and timer bursts against "
        "a preemptive 3-process kernel; contract: every process completes "
        "with baseline output, one refault kills only its victim"
    )
    expects = "recovered"
    quantum = 300

    def _sources(self):
        return [_counting_source(base, 30) for base in (100, 200, 300)]

    def build_plan(self, seed: int, baseline_steps: int) -> ChaosPlan:
        rng = plan_rng(seed)
        steps = self._boundaries(rng, 9, baseline_steps, lo=200)
        injections = [injection(step, "spurious-int") for step in steps[:6]]
        injections += [
            injection(step, "int-burst", count=rng.randrange(2, 6)) for step in steps[6:8]
        ]
        injections.append(injection(steps[8], "refault"))
        return make_plan(seed, self.name, injections)


class PagingChaosCampaign(_KernelCampaign):
    name = "paging-chaos"
    description = (
        "clean page-map entries dropped under frame pressure (clock "
        "eviction active); contract: the demand pager transparently "
        "reloads every dropped page and all checksums match baseline"
    )
    expects = "recovered"
    quantum = 200
    # Each drop orphans its frame (the kernel's bump allocator never
    # reclaims an unmapped frame), so the pool must absorb every
    # injected drop and still leave a working set -- too few frames
    # left and code/data pages evict each other on every access.
    max_frames = 12

    def _sources(self):
        return [_paging_source(salt, 18) for salt in (17, 43)]

    def build_plan(self, seed: int, baseline_steps: int) -> ChaosPlan:
        rng = plan_rng(seed)
        steps = self._boundaries(rng, 6, baseline_steps, lo=400)
        injections = [injection(step, "pagemap-drop") for step in steps[:5]]
        injections.append(injection(steps[5], "spurious-int"))
        return make_plan(seed, self.name, injections)


class NestedFaultsCampaign(_KernelCampaign):
    name = "nested-faults"
    description = (
        "synthetic re-faults at recoverable boundaries, then a fault "
        "delivered inside a handler; contract: recoverable refaults kill "
        "only the current process, the in-handler fault dies as a "
        "structured double-fault PANIC on both engines"
    )
    expects = "panic"
    quantum = 300

    def _sources(self):
        return [_counting_source(base, 25) for base in (100, 200, 300, 400)]

    def build_plan(self, seed: int, baseline_steps: int) -> ChaosPlan:
        rng = plan_rng(seed)
        # Two of the four processes may die to the refaults, so the run
        # can finish in roughly half the baseline steps; keep every
        # boundary inside that worst case so the final kernel-refault
        # always lands before the halt.
        steps = self._boundaries(rng, 3, baseline_steps, lo=300, frac=0.4)
        injections = [injection(step, "refault") for step in steps[:2]]
        injections.append(injection(steps[2], "kernel-refault"))
        return make_plan(seed, self.name, injections)


class DeviceStallCampaign(_KernelCampaign):
    name = "device-stall"
    description = (
        "the timer device parks for hundreds of words (stall/timeout); "
        "contract: preemption resumes after the stall and every process "
        "still completes with baseline output"
    )
    expects = "recovered"
    quantum = 250

    def _sources(self):
        return [_counting_source(base, 30) for base in (100, 200, 300)]

    def build_plan(self, seed: int, baseline_steps: int) -> ChaosPlan:
        rng = plan_rng(seed)
        steps = self._boundaries(rng, 2, baseline_steps, lo=150)
        injections = [
            injection(step, "timer-stall", duration=rng.randrange(400, 2500))
            for step in steps
        ]
        return make_plan(seed, self.name, injections)


CAMPAIGNS: Dict[str, Campaign] = {
    campaign.name: campaign
    for campaign in (
        BitflipCampaign(),
        InterruptStormCampaign(),
        PagingChaosCampaign(),
        NestedFaultsCampaign(),
        DeviceStallCampaign(),
    )
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _baseline(campaign: Campaign) -> Dict[str, Any]:
    target = campaign.make_target()
    target.run_steps(campaign.max_steps, fast=True)
    if not target.halted:
        raise RuntimeError(
            f"campaign {campaign.name!r} baseline did not halt within "
            f"{campaign.max_steps} steps"
        )
    return {
        "steps": target.cpu.stats.words,
        "outputs": _collect_outputs(target),
        "digest": fingerprint_digest(target.cpu),
    }


def _run_digest(payload: Any) -> str:
    canonical = json.dumps(_json_safe(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_campaign_plan(
    campaign: Campaign,
    plan: ChaosPlan,
    engines: Sequence[str] = ("fast", "precise"),
    baseline: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one plan on one campaign scenario; returns the summary dict.

    The summary is pure data with no volatile fields: the same campaign,
    seed, and engine set produce a byte-identical summary (and digest)
    on every run.
    """
    if baseline is None:
        baseline = _baseline(campaign)
    runs: Dict[str, ChaosRun] = {}
    for engine_name in engines:
        target = campaign.make_target()
        runs[engine_name] = run_plan(
            target,
            plan,
            fast=(engine_name != "precise"),
            max_steps=campaign.max_steps,
        )
    violations: List[Dict[str, Any]] = []
    for engine_name in sorted(runs):
        run = runs[engine_name]
        for violation in run.violations:
            violations.append(dict(violation, engine=engine_name))
        for record in run.records:
            detail = record.get("detail") or {}
            if detail.get("confined") is False:
                violations.append(
                    {
                        "check": "dma-confinement",
                        "detail": "DMA corruption escaped its transfer window",
                        "step": record["step"],
                        "engine": engine_name,
                    }
                )
        if campaign.expects == "panic":
            if run.outcome != "panic":
                violations.append(
                    {
                        "check": "expected-panic",
                        "detail": f"run ended {run.outcome!r}, not in a double-fault panic",
                        "step": run.final["words"],
                        "engine": engine_name,
                    }
                )
            else:
                for problem in check_panic_record(run.final["panic"]):
                    violations.append(
                        {
                            "check": "panic-record",
                            "detail": problem,
                            "step": run.final["words"],
                            "engine": engine_name,
                        }
                    )
        elif campaign.expects == "recovered":
            if run.outcome != "halted":
                violations.append(
                    {
                        "check": "recovery-completion",
                        "detail": f"machine did not halt (outcome {run.outcome!r})",
                        "step": run.final["words"],
                        "engine": engine_name,
                    }
                )
            victims = set(run.victims)
            for pid, expected in sorted(baseline["outputs"].items()):
                if int(pid) in victims:
                    continue
                if run.outputs.get(pid) != expected:
                    violations.append(
                        {
                            "check": "process-isolation",
                            "detail": f"pid {pid} output diverged from the uninjected baseline",
                            "step": run.final["words"],
                            "engine": engine_name,
                        }
                    )
    ordered = [name for name in ENGINES if name in runs]
    for i, left_name in enumerate(ordered):
        for right_name in ordered[i + 1:]:
            left, right = runs[left_name], runs[right_name]
            for check, matched in (
                ("differential-records", left.records == right.records),
                ("differential-final", left.final == right.final),
                ("differential-outputs", left.outputs == right.outputs),
            ):
                if not matched:
                    violations.append(
                        {
                            "check": check,
                            "detail": (
                                f"{left_name} and {right_name} runs diverged "
                                "under identical injections"
                            ),
                            "step": -1,
                            "engine": f"{left_name}+{right_name}",
                        }
                    )
    engine_summaries = {
        engine_name: {
            "outcome": run.outcome,
            "records": run.records,
            "final": run.final,
            "victims": run.victims,
            "outputs": run.outputs,
        }
        for engine_name, run in sorted(runs.items())
    }
    summary = {
        "campaign": campaign.name,
        "seed": plan.seed,
        "expects": campaign.expects,
        "plan": plan.to_dict(),
        "baseline": baseline,
        "engines": engine_summaries,
        "violations": violations,
    }
    summary["digest"] = _run_digest(summary)
    return summary


def run_campaign(
    name: str,
    seed: int,
    engines: Sequence[str] = ("fast", "precise"),
) -> Dict[str, Any]:
    """Build the seeded plan for campaign ``name`` and run it."""
    if name not in CAMPAIGNS:
        raise KeyError(f"unknown campaign {name!r} (have {', '.join(sorted(CAMPAIGNS))})")
    campaign = CAMPAIGNS[name]
    baseline = _baseline(campaign)
    plan = campaign.build_plan(seed, baseline["steps"])
    return run_campaign_plan(campaign, plan, engines=engines, baseline=baseline)


def campaign_record(summary: Mapping[str, Any]) -> Dict[str, Any]:
    """A farm-style result record for a campaign summary.

    Matches the worker record envelope so chaos results flow through
    :class:`~repro.farm.store.ResultStore` and ``aggregate`` unchanged.
    All fields are run-invariant (``wall_s`` pinned to 0.0), so chaos
    JSONL files byte-compare equal across reruns of the same seed.
    """
    engines = summary["engines"]
    first = engines[sorted(engines)[0]]
    record = _base_record(
        {
            "key": f"chaos-{summary['campaign']}-{summary['seed']}",
            "kind": "chaos",
            "name": f"{summary['campaign']}@{summary['seed']}",
        },
        attempt=1,
    )
    record["cycles"] = first["final"]["cycles"]
    record["words"] = first["final"]["words"]
    record["fingerprint"] = first["final"]["digest"]
    record["extra"]["chaos"] = dict(summary)
    if summary["violations"]:
        record["status"] = "error"
        record["error"] = {
            "type": "InvariantViolation",
            "message": f"{len(summary['violations'])} recovery-contract violations",
        }
    return record
