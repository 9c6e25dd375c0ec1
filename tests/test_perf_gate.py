"""The deterministic cycle gate and the paper-claims validator.

Includes the two CI-facing acceptance checks: a seeded >2% cycle
regression is caught and named, and the shipped ``PERF_BASELINE.json``
passes against a fresh collection through ``mips-prof cycles``.
"""

import json
import os

import pytest

from repro.cli import prof_main
from repro.perf import baseline as perf_baseline
from repro.perf import claims
from repro.perf.baseline import Regression, compare, render_gate

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_BASELINE = os.path.join(REPO_ROOT, perf_baseline.BASELINE_FILE)


def _doc(benchmarks):
    return perf_baseline.baseline_document(benchmarks)


class TestCompare:
    BASE = {"sort": {"cycles": 10_000, "load_stalls": 100}}

    def test_seeded_regression_is_caught(self):
        """A 3% cycle growth (past the 2% threshold) fails the gate."""
        current = {"sort": {"cycles": 10_300, "load_stalls": 100}}
        regressions = compare(_doc(self.BASE), current)
        assert [(r.benchmark, r.counter) for r in regressions] == [("sort", "cycles")]
        assert regressions[0].growth == pytest.approx(0.03)

    def test_growth_within_threshold_passes(self):
        current = {"sort": {"cycles": 10_199, "load_stalls": 101}}
        assert compare(_doc(self.BASE), current) == []

    def test_shrinking_counters_never_fail(self):
        current = {"sort": {"cycles": 5_000, "load_stalls": 0}}
        assert compare(_doc(self.BASE), current) == []

    def test_counter_appearing_from_zero_fails(self):
        base = {"sort": {"cycles": 10_000, "load_stalls": 0}}
        current = {"sort": {"cycles": 10_000, "load_stalls": 5}}
        regressions = compare(_doc(base), current)
        assert regressions and regressions[0].counter == "load_stalls"
        assert regressions[0].growth == float("inf")

    def test_worst_offender_sorted_first_and_named(self):
        base = {
            "sort": {"cycles": 10_000, "load_stalls": 100},
            "calc": {"cycles": 1_000, "load_stalls": 10},
        }
        current = {
            "sort": {"cycles": 10_500, "load_stalls": 100},   # +5%
            "calc": {"cycles": 1_200, "load_stalls": 10},     # +20% -- worst
        }
        regressions = compare(_doc(base), current)
        assert regressions[0].benchmark == "calc"
        message = render_gate(regressions)
        assert "worst offender: calc: cycles 1000 -> 1200 (+20.00%)" in message
        assert "FAIL" in message
        assert "mips-prof update-baseline" in message

    def test_new_workload_ignored(self):
        current = dict(self.BASE["sort"] and {"sort": {"cycles": 10_000, "load_stalls": 100}})
        current["fresh"] = {"cycles": 1}
        assert compare(_doc(self.BASE), current) == []

    def test_pass_message(self):
        assert "ok" in render_gate([])


class TestRegressionRendering:
    def test_percentages(self):
        r = Regression("sort", "cycles", 100, 103)
        assert "+3.00%" in r.render()
        assert Regression("sort", "cycles", 0, 5).render().endswith("(new)")


class TestShippedBaseline:
    def test_baseline_file_is_committed_and_wellformed(self):
        doc = perf_baseline.load_baseline(SHIPPED_BASELINE)
        assert doc["version"] == perf_baseline.BASELINE_VERSION
        assert set(doc["counters"]) == set(perf_baseline.GATED_COUNTERS)
        assert doc["benchmarks"], "baseline must cover the quick corpus"
        for counters in doc["benchmarks"].values():
            assert set(counters) == set(perf_baseline.GATED_COUNTERS)

    def test_fresh_collection_passes_the_shipped_gate(self, monkeypatch, capsys):
        """The acceptance check CI runs: collect now, gate vs committed."""
        monkeypatch.chdir(REPO_ROOT)
        status = prof_main(["cycles"])
        out = capsys.readouterr().out
        assert status == 0, out
        assert "perf gate: ok" in out

    def test_missing_baseline_exits_2_before_collecting(self, tmp_path, monkeypatch, capsys):
        def no_collection(*args, **kwargs):
            raise AssertionError("the gate collected without a baseline")

        monkeypatch.setattr(perf_baseline, "collect_cycles", no_collection)
        monkeypatch.chdir(tmp_path)
        assert prof_main(["cycles"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: no cycle baseline at {tmp_path / 'PERF_BASELINE.json'}\n"

    def test_collection_is_deterministic_across_sharding(self):
        subset = ("sort", "calc", "strings")
        assert perf_baseline.collect_cycles(subset, jobs=1) == perf_baseline.collect_cycles(
            subset, jobs=2
        )


class TestBaselineRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        perf_baseline.write_baseline(path, {"sort": {"cycles": 42}})
        doc = perf_baseline.load_baseline(path)
        assert doc["benchmarks"] == {"sort": {"cycles": 42}}
        # canonical formatting: trailing newline, sorted keys
        text = open(path).read()
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_update_baseline_then_gate_through_the_cli(self, tmp_path, monkeypatch, capsys):
        """``update-baseline`` writes the file ``cycles`` then gates against."""
        counters = {"sort": {"cycles": 10_000, "load_stalls": 100}}
        monkeypatch.setattr(perf_baseline, "collect_cycles", lambda jobs: counters)
        monkeypatch.chdir(tmp_path)
        assert prof_main(["update-baseline", "--jobs", "2"]) == 0
        assert perf_baseline.load_baseline("PERF_BASELINE.json")["benchmarks"] == counters
        assert prof_main(["cycles"]) == 0
        counters["sort"]["cycles"] = 10_300
        capsys.readouterr()
        assert prof_main(["cycles"]) == 1
        assert "worst offender: sort: cycles 10000 -> 10300" in capsys.readouterr().out


class TestClaims:
    def test_validator_passes_on_synthetic_in_band_counters(self):
        groups = {
            "immediates": {"imm4_coverage_pct": 70.0, "movi_coverage_pct": 96.0},
            "control": {"cc_savings_operators_pct": 1.5},
            "memory": {"free_cycle_pct": 40.0},
        }
        results = claims.validate(groups)
        assert claims.all_ok(results)

    @pytest.mark.parametrize(
        "patch,failing",
        [
            ({"immediates": {"imm4_coverage_pct": 50.0, "movi_coverage_pct": 96.0}}, "table1-imm4"),
            ({"immediates": {"imm4_coverage_pct": 70.0, "movi_coverage_pct": 90.0}}, "table1-movi"),
            ({"memory": {"free_cycle_pct": 20.0}}, "free-cycles"),
            ({"control": {"cc_savings_operators_pct": 5.0}}, "table3-cc"),
        ],
    )
    def test_each_band_fails_independently(self, patch, failing):
        groups = {
            "immediates": {"imm4_coverage_pct": 70.0, "movi_coverage_pct": 96.0},
            "control": {"cc_savings_operators_pct": 1.5},
            "memory": {"free_cycle_pct": 40.0},
        }
        groups.update(patch)
        results = claims.validate(groups)
        bad = [r.name for r in results if not r.ok]
        assert bad == [failing]
        assert failing in claims.render(results)

    def test_render_mentions_every_claim(self):
        results = claims.validate(
            {
                "immediates": {"imm4_coverage_pct": 70.0, "movi_coverage_pct": 96.0},
                "control": {"cc_savings_operators_pct": 1.5},
                "memory": {"free_cycle_pct": 40.0},
            }
        )
        text = claims.render(results)
        for name in ("table1-imm4", "table1-movi", "free-cycles", "table3-cc"):
            assert name in text
        assert "all paper claims hold" in text
