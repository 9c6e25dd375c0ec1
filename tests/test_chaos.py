"""The chaos subsystem: deterministic fault injection with recovery checks.

Covers the four contracts the subsystem ships:

- **determinism** -- a seed fully determines the plan, every injection
  record, and the campaign digest (same seed, byte-identical results);
- **recovery verification** -- all shipped campaigns pass the recovery
  contract with zero violations on both execution engines;
- **double-fault panic** -- a fault delivered inside a handler dies as a
  structured PANIC record, not silent state loss;
- **operability** -- ``mips-chaos run`` records are byte-reproducible,
  and the shrinker minimizes failing plans.
"""

import filecmp

import pytest

from repro.asm import assemble
from repro.chaos import (
    CAMPAIGNS,
    RecoveryContractChecker,
    check_panic_record,
    injection,
    make_plan,
    run_campaign,
    run_plan,
    shortest_failing_prefix,
)
from repro.chaos.campaigns import _baseline, _counting_source
from repro.cli import chaos_main
from repro.sim.faults import KernelPanic, OverflowTrap
from repro.system.kernel import Kernel

SEED = 7


def _kernel_with(sources):
    kernel = Kernel(quantum=300)
    for source in sources:
        kernel.add_process(assemble(source))
    kernel.boot()
    return kernel


def _step_until(kernel, predicate, limit=30_000):
    for _ in range(limit):
        if predicate(kernel.cpu):
            return True
        kernel.run_steps(1, fast=False)
    return False


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        for name, campaign in sorted(CAMPAIGNS.items()):
            baseline = _baseline(campaign)
            a = campaign.build_plan(SEED, baseline["steps"])
            b = campaign.build_plan(SEED, baseline["steps"])
            assert a == b, name
            assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        campaign = CAMPAIGNS["bitflips"]
        baseline = _baseline(campaign)
        plans = {
            str(campaign.build_plan(seed, baseline["steps"]).to_dict())
            for seed in range(5)
        }
        assert len(plans) == 5

    def test_plan_is_sorted_by_step(self):
        campaign = CAMPAIGNS["interrupt-storm"]
        baseline = _baseline(campaign)
        plan = campaign.build_plan(SEED, baseline["steps"])
        steps = [inj.step for inj in plan.injections]
        assert steps == sorted(steps)

    def test_prefix_truncates(self):
        plan = make_plan(1, "x", [injection(10, "spurious-int"), injection(20, "refault")])
        assert len(plan.prefix(1).injections) == 1
        assert plan.prefix(1).injections[0].step == 10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            injection(10, "meteor-strike")


class TestShippedCampaigns:
    """The acceptance bar: zero violations, expected outcomes, both engines."""

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_zero_violations_on_both_engines(self, name):
        summary = run_campaign(name, seed=SEED)
        assert summary["violations"] == []
        assert set(summary["engines"]) == {"fast", "precise"}
        expected = {"panic"} if CAMPAIGNS[name].expects == "panic" else {"halted"}
        for engine in summary["engines"].values():
            assert engine["outcome"] in expected

    def test_summary_is_reproducible(self):
        a = run_campaign("interrupt-storm", seed=SEED)
        b = run_campaign("interrupt-storm", seed=SEED)
        assert a == b
        assert a["digest"] == b["digest"]

    def test_engines_agree_per_injection(self):
        summary = run_campaign("bitflips", seed=SEED)
        fast, precise = summary["engines"]["fast"], summary["engines"]["precise"]
        assert fast["records"] == precise["records"]
        assert fast["final"] == precise["final"]
        assert fast["outputs"] == precise["outputs"]

    def test_nested_faults_ends_in_wellformed_panic(self):
        summary = run_campaign("nested-faults", seed=SEED)
        for engine in summary["engines"].values():
            assert engine["outcome"] == "panic"
            assert check_panic_record(engine["final"]["panic"]) == []
            assert len(engine["final"]["panic"]["xra"]) == 3


class TestDoubleFaultPanic:
    def test_fault_inside_handler_panics(self):
        kernel = _kernel_with([_counting_source(100, 10)])
        assert _step_until(kernel, lambda c: c.in_exception)
        with pytest.raises(KernelPanic) as info:
            kernel.cpu._take_fault(OverflowTrap("injected"))
        record = info.value.record()
        assert record["panic"] == "double fault"
        assert check_panic_record(record) == []
        assert len(record["xra"]) == 3

    def test_fault_outside_handler_recovers(self):
        kernel = _kernel_with([_counting_source(100, 10)])
        assert _step_until(kernel, lambda c: not c.in_exception)
        kernel.cpu._take_fault(OverflowTrap("injected"))  # must not raise
        assert kernel.cpu.in_exception
        assert kernel.cpu.pc == 0

    def test_tampered_panic_record_is_flagged(self):
        kernel = _kernel_with([_counting_source(100, 10)])
        assert _step_until(kernel, lambda c: c.in_exception)
        with pytest.raises(KernelPanic) as info:
            kernel.cpu._take_fault(OverflowTrap("injected"))
        record = info.value.record()
        record["xra"] = record["xra"][:2]
        del record["fault_cause"]
        assert check_panic_record(record)


class TestInvariantChecker:
    def test_clean_kernel_run_has_no_violations(self):
        kernel = _kernel_with([_counting_source(100, 20), _counting_source(200, 20)])
        checker = RecoveryContractChecker()
        checker.install(kernel.cpu)
        kernel.run_steps(60_000)
        assert kernel.halted
        assert checker.observed > 0
        assert checker.violations == []

    def test_checker_is_engine_invariant(self):
        counts = {}
        for fast in (True, False):
            kernel = _kernel_with([_counting_source(100, 20)])
            checker = RecoveryContractChecker()
            checker.install(kernel.cpu)
            kernel.run_steps(60_000, fast=fast)
            assert kernel.halted
            assert checker.violations == []
            counts[fast] = checker.observed
        assert counts[True] == counts[False]


class TestShrinker:
    def _plan(self, count):
        return make_plan(
            3, "synthetic", [injection(10 * (i + 1), "spurious-int") for i in range(count)]
        )

    def test_monotone_failure_shrinks_to_boundary(self):
        plan = self._plan(8)
        calls = []

        def fails(candidate):
            calls.append(len(candidate.injections))
            return len(candidate.injections) >= 5

        shrunk = shortest_failing_prefix(plan, fails)
        assert len(shrunk.injections) == 5
        assert len(calls) < 12  # binary search, not linear scan

    def test_nothing_fails_returns_full_plan(self):
        plan = self._plan(4)
        assert shortest_failing_prefix(plan, lambda p: False) == plan

    def test_nonmonotone_failure_still_minimal(self):
        plan = self._plan(8)
        shrunk = shortest_failing_prefix(plan, lambda p: len(p.injections) == 4)
        assert len(shrunk.injections) == 4

    def test_shrinks_panic_plan_to_the_kernel_refault(self):
        campaign = CAMPAIGNS["nested-faults"]
        baseline = _baseline(campaign)
        plan = campaign.build_plan(SEED, baseline["steps"])

        def fails(candidate):
            try:
                run = run_plan(
                    campaign.make_target(), candidate, fast=True, max_steps=campaign.max_steps
                )
            except Exception:
                return False
            return run.outcome == "panic"

        shrunk = shortest_failing_prefix(plan, fails)
        assert shrunk.injections[-1].kind == "kernel-refault"
        assert len(shrunk.injections) <= len(plan.injections)


class TestChaosCli:
    def test_run_is_byte_reproducible(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        argv = ["run", "--seed", str(SEED), "--campaign", "nested-faults",
                "--campaign", "device-stall"]
        assert chaos_main(argv + ["--results", a]) == 0
        assert chaos_main(argv + ["--results", b]) == 0
        out = capsys.readouterr().out
        assert filecmp.cmp(a, b, shallow=False)
        assert out.count("aggregate digest:") == 2

    def test_list_names_every_campaign(self, capsys):
        assert chaos_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in CAMPAIGNS:
            assert name in out

    def test_unknown_campaign_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            chaos_main(["run", "--seed", "1", "--campaign", "nope"])
