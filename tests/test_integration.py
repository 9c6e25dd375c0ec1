"""Cross-cutting integration: the full toolchain and the full machine."""

import pytest

from repro.asm import assemble
from repro.compiler import CompileOptions, LayoutStrategy, compile_source
from repro.isa.encoding import decode
from repro.reorg import ALL_LEVELS
from repro.sim import HazardMode, Machine
from repro.system import Kernel
from repro.workloads import CORPUS, EXPECTED_OUTPUT


class TestToolchainRoundTrips:
    def test_compiled_program_decodes_from_memory(self):
        """Every compiled instruction word re-decodes from its bits."""
        compiled = compile_source(CORPUS["sieve"])
        for addr, word in compiled.program.instructions.items():
            assert decode(compiled.program.memory[addr], addr) == word

    def test_compiled_program_runs_from_raw_bits(self):
        """Execution via decode (no cached words) gives the same output."""
        compiled = compile_source(CORPUS["strings"])
        machine = Machine(compiled.program)
        machine.cpu._decode_cache.clear()  # force real decoding
        machine.run(10_000_000)
        assert machine.output == EXPECTED_OUTPUT["strings"]

    def test_disassembly_reassembles_consistently(self):
        source = """
        start:  movi #42, r1
                trap #1
                trap #0
        """
        program = assemble(source)
        listing = program.disassemble()
        assert "movi #42,r1" in listing


class TestOptimizationLevelsEndToEnd:
    @pytest.mark.parametrize("name", ["sieve", "sort", "fib_recursive"])
    def test_all_levels_agree_on_corpus(self, name, compile_cache):
        outputs = []
        for level in ALL_LEVELS:
            compiled = compile_cache(CORPUS[name], opt_level=level)
            machine = Machine(compiled.program, hazard_mode=HazardMode.CHECKED)
            machine.run(60_000_000)
            outputs.append(machine.output)
        assert all(o == EXPECTED_OUTPUT[name] for o in outputs)

    def test_optimized_code_is_faster(self, compile_cache):
        from repro.reorg import OptLevel

        cycles = {}
        for level in (OptLevel.NONE, OptLevel.BRANCH_DELAY):
            compiled = compile_cache(CORPUS["sort"], opt_level=level)
            machine = Machine(compiled.program)
            stats = machine.run(60_000_000)
            cycles[level] = stats.cycles
        assert cycles[OptLevel.BRANCH_DELAY] < cycles[OptLevel.NONE]


class TestKernelRunsTheCorpus:
    def test_three_processes_with_preemption(self):
        kernel = Kernel(quantum=3000, hazard_mode=HazardMode.CHECKED)
        names = ["fib_iterative", "strings", "sieve"]
        for name in names:
            kernel.add_process(compile_source(CORPUS[name]).program)
        kernel.run(60_000_000)
        for pid, name in enumerate(names):
            assert kernel.output(pid) == EXPECTED_OUTPUT[name], name
            assert kernel.process_state(pid) == 2

    def test_same_program_bare_metal_and_under_kernel(self):
        compiled = compile_source(CORPUS["sort"])
        bare = Machine(compiled.program)
        bare.run(30_000_000)
        kernel = Kernel(quantum=2500)
        kernel.add_process(compiled.program)
        kernel.run(60_000_000)
        assert bare.output == kernel.output(0) == EXPECTED_OUTPUT["sort"]

    def test_kernel_under_checked_mode(self):
        """The kernel's own ROM satisfies every pipeline constraint."""
        kernel = Kernel(quantum=1000, hazard_mode=HazardMode.CHECKED)
        kernel.add_process(compile_source(CORPUS["scanner"]).program)
        kernel.add_process(compile_source(CORPUS["logic"]).program)
        kernel.run(60_000_000)
        assert kernel.output(0) == EXPECTED_OUTPUT["scanner"]
        assert kernel.output(1) == EXPECTED_OUTPUT["logic"]


class TestCli:
    def test_mipsc_compiles_and_runs(self, tmp_path, capsys):
        from repro.cli import compile_main

        source_file = tmp_path / "p.pas"
        source_file.write_text("program p; begin writeln(6 * 7) end.")
        assert compile_main([str(source_file)]) == 0
        assert "42" in capsys.readouterr().out

    def test_sim_main(self, tmp_path, capsys):
        from repro.cli import sim_main

        source_file = tmp_path / "p.s"
        source_file.write_text("start: movi #99, r1\ntrap #1\ntrap #0")
        assert sim_main([str(source_file)]) == 0
        assert "99" in capsys.readouterr().out

    def test_asm_main(self, tmp_path, capsys):
        from repro.cli import asm_main

        source_file = tmp_path / "p.s"
        source_file.write_text("start: nop\ntrap #0")
        assert asm_main([str(source_file)]) == 0
        assert "nop" in capsys.readouterr().out

    def test_reorg_main(self, tmp_path, capsys):
        from repro.cli import reorg_main

        source_file = tmp_path / "p.s"
        source_file.write_text("start: ld 0(r1), r2\nadd r2, r3, r4\ntrap #0")
        assert reorg_main([str(source_file)]) == 0
        out = capsys.readouterr().out
        assert "none:" in out and "branch-delay:" in out

    def test_reorg_main_stops_on_an_undefined_label(self, tmp_path, capsys):
        """The listed level is resolved before anything is printed."""
        from repro.asm import UndefinedSymbol
        from repro.cli import reorg_main

        source_file = tmp_path / "p.s"
        source_file.write_text("start: jmp nowhere\nnop\ntrap #0")
        with pytest.raises(UndefinedSymbol, match="'nowhere'"):
            reorg_main([str(source_file)])
        assert capsys.readouterr().out == ""

    def test_reorg_main_reorganizes_each_level_once(self, tmp_path, capsys, monkeypatch):
        """The listing of ``--level`` reuses that level's summary run."""
        from repro import reorg
        from repro.cli import reorg_main

        levels = []
        real = reorg.reorganize

        def counting(stream, level, *args, **kwargs):
            levels.append(level)
            return real(stream, level, *args, **kwargs)

        monkeypatch.setattr(reorg, "reorganize", counting)
        source_file = tmp_path / "p.s"
        source_file.write_text("start: ld 0(r1), r2\nadd r2, r3, r4\ntrap #0")
        assert reorg_main([str(source_file), "--level", "pack"]) == 0
        assert levels == reorg.ALL_LEVELS
        out = capsys.readouterr().out
        assert "; pack: 4 words *" in out

    def test_experiments_main_rejects_unknown(self):
        from repro.cli import experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["no_such_table"])
