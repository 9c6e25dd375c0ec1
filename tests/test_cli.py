"""Command-line entry points: step-budget diagnostics and the farm CLI."""

import importlib.util
import json
import os

import pytest

from repro.cli import (
    EXIT_STEP_BUDGET,
    compile_main,
    experiments_main,
    farm_main,
    sim_main,
)

RUNAWAY_ASM = """
start:  jmp start
        nop
"""

RUNAWAY_PASCAL = """
program spin;
var i: integer;
begin
  i := 0;
  while i < 1000000000 do
    i := i + 1
end.
"""


@pytest.fixture
def runaway_asm(tmp_path):
    path = tmp_path / "loop.s"
    path.write_text(RUNAWAY_ASM)
    return str(path)


class TestStepBudgetDiagnostic:
    def test_sim_reports_runaway_instead_of_hanging(self, runaway_asm, capsys):
        code = sim_main([runaway_asm, "--max-steps", "10000"])
        assert code == EXIT_STEP_BUDGET
        err = capsys.readouterr().err
        assert "did not halt within 10000 steps" in err
        assert "--max-steps" in err

    def test_compile_reports_runaway_instead_of_hanging(self, tmp_path, capsys):
        path = tmp_path / "spin.pas"
        path.write_text(RUNAWAY_PASCAL)
        code = compile_main([str(path), "--max-steps", "10000"])
        assert code == EXIT_STEP_BUDGET
        err = capsys.readouterr().err
        assert "did not halt within 10000 steps" in err

    def test_well_behaved_program_still_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "halt.s"
        path.write_text("start: trap #0\n       nop\n")
        assert sim_main([str(path)]) == 0


class TestExperimentsJobsFlag:
    NAMES = ["table5", "figure2"]

    def test_jobs_flag_does_not_change_output(self, capsys):
        assert experiments_main(self.NAMES + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert experiments_main(self.NAMES + ["--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded
        assert "== Table 5" in serial

    def test_unknown_experiment_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            experiments_main(["not_a_table"])

    def test_results_file_streams_records(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert experiments_main(["table5", "--results", str(out)]) == 0
        capsys.readouterr()
        (record,) = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
        assert record["name"] == "table5"
        assert record["status"] == "ok"


class TestFarmCli:
    def test_run_then_status_roundtrip(self, tmp_path, capsys):
        results = tmp_path / "farm.jsonl"
        code = farm_main(
            [
                "run",
                "--workload",
                "scanner",
                "--workload",
                "logic",
                "--jobs",
                "2",
                "--results",
                str(results),
            ]
        )
        run_out = capsys.readouterr().out
        assert code == 0
        assert "scanner" in run_out and "logic" in run_out
        assert "2 jobs" in run_out

        assert farm_main(["status", str(results)]) == 0
        status_out = capsys.readouterr().out
        assert "jobs:        2" in status_out
        assert "ok=2" in status_out
        # the digest in status must match the one printed by run
        digest_lines = [l for l in run_out.splitlines() if l.startswith("digest:")]
        assert digest_lines and digest_lines[0] in status_out

    def test_failing_batch_exits_nonzero(self, capsys):
        code = farm_main(["run", "--workload", "scanner", "--max-steps", "10"])
        assert code == 1
        out = capsys.readouterr().out
        assert "timeout" in out

    def test_unknown_workload_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            farm_main(["run", "--workload", "nonsense"])

    def test_stable_results_match_digest(self, tmp_path):
        from repro.farm import Scheduler, workload_jobs
        from repro.farm.store import stable_view

        path = tmp_path / "stable.jsonl"
        assert farm_main(
            ["run", "--workload", "scanner", "--stable-results", str(path)]
        ) == 0
        (line,) = [l for l in path.read_text().splitlines() if l]
        view = json.loads(line)
        assert "wall_s" not in view
        (direct,) = Scheduler(jobs=1).run(workload_jobs(["scanner"]))
        assert view == stable_view(direct)


def _load_tool(name):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(repo_root, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGenerateExperimentsArgs:
    """Bad arguments get a usage error, never a silent full regeneration."""

    @pytest.mark.parametrize(
        "argv", (["--jobs"], ["--jobs", "two"], ["--bogus"], ["table5"]),
        ids=("jobs-without-value", "jobs-not-a-number", "unknown-option", "positional"),
    )
    def test_bad_arguments_exit_2_with_usage(self, argv, capsys):
        generator = _load_tool("generate_experiments_md")
        with pytest.raises(SystemExit) as exc:
            generator.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")

    def test_help_prints_usage_and_regenerates_nothing(self, capsys):
        generator = _load_tool("generate_experiments_md")
        with pytest.raises(SystemExit) as exc:
            generator.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ")
        assert "--jobs N" in out
        assert "# EXPERIMENTS" not in out


FAULTING_ASM = """
start:  lim #1048575, r1
        sll r1, #4, r1
        ld 0(r1), r2
        nop
        trap #0
"""


class TestGuestFailureDiagnostic:
    """A dead guest exits with a structured record, not a traceback."""

    def test_faulting_program_exits_with_panic_code(self, tmp_path, capsys):
        from repro.cli import EXIT_PANIC

        path = tmp_path / "fault.s"
        path.write_text(FAULTING_ASM)
        code = sim_main([str(path)])
        assert code == EXIT_PANIC
        err = capsys.readouterr().err
        assert "FAULT:" in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["fault"] == "BusError"
        assert record["cause"] == "BUS_ERROR"
        assert len(record["xra"]) == 3

    def test_panic_record_shape_matches_chaos_contract(self):
        # the CLI prints KernelPanic.record() verbatim; the chaos
        # invariant checker vets the very same shape
        from repro.chaos import check_panic_record
        from repro.sim import KernelPanic

        from repro.sim import ExceptionCause

        exc = KernelPanic(ExceptionCause.TRAP, 1, ExceptionCause.OVERFLOW, 0, [1, 2, 3], 7)
        assert set(exc.record()) >= {
            "panic", "handling_cause", "handling_minor",
            "fault_cause", "fault_minor", "xra", "pc",
        }
        assert check_panic_record(exc.record()) == []
