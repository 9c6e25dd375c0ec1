"""Self-test of the benchmark at the reduced ``--quick`` size.

    python -m pytest bench/
"""

import json
import time

import pytest

import run
import workloads

COUNT_UNITS = ("words", "cycles", "count")


def _run(name, trace):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, quick=True,
                            started=time.perf_counter())


@pytest.fixture(scope="module")
def spec():
    return json.loads(run.SPEC.read_text())


@pytest.fixture(scope="module")
def runs(spec):
    """Every workload once untraced and twice traced."""
    return {
        (w["name"], trace, rep): _run(w["name"], trace)
        for w in spec["workloads"]
        for trace, rep in ((0, 0), (1, 0), (1, 1))
    }


def test_every_listed_metric_is_emitted_with_its_unit(spec, runs):
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    for (name, trace, _rep), result in runs.items():
        listed = spec["per_layer" if trace else "end_to_end"]
        line = run.final_line(result, [m["name"] for m in listed])
        assert line["correct"] and line["attempted"] >= 1, (name, result["errors"])
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }, name


def test_planted_wrong_expectation_is_a_failure_not_a_traceback(monkeypatch, spec):
    monkeypatch.setitem(workloads.EXPECTED, "strings", [-1])
    result = _run("corpus-cold", trace=0)
    line = run.final_line(result, [m["name"] for m in spec["end_to_end"]])
    assert not line["correct"] and line["failed"] == 1
    assert result["failed_ratio"] == line["failed"] / line["attempted"] > 0
    assert [e.split(":")[0] for e in result["errors"]] == ["strings.run"]


def test_self_times_and_unattributed_time_add_up_to_the_traced_wall(runs):
    for (name, trace, _rep), result in runs.items():
        if not trace:
            continue
        summary = result["trace_summary"]
        total = sum(summary["self_ms"].values()) + summary["unattributed_ms"]
        assert total == pytest.approx(summary["wall_ms"], rel=1e-9), name
        assert summary["unattributed_ms"] < 0.05 * summary["wall_ms"], name


def test_exact_counts_repeat_across_runs(spec, runs):
    for name in (w["name"] for w in spec["workloads"]):
        first, second = runs[(name, 1, 0)], runs[(name, 1, 1)]
        assert first["counts"] == second["counts"] == runs[(name, 0, 0)]["counts"], name
        counted = {
            n: m["value"] for n, m in first["metrics"].items() if m["unit"] in COUNT_UNITS
        }
        assert counted and counted == {
            n: m["value"] for n, m in second["metrics"].items() if m["unit"] in COUNT_UNITS
        }, name
