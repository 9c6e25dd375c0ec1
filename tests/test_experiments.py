"""The experiment harness: every table and figure runs and holds its shape,
and the ablations beyond the paper point the way the paper argues.

Shape, not absolute value: the paper's cycle counts belong to its
programs and hardware, so these pin who wins and by roughly what factor.
EXPERIMENTS.md's byte-identity check pins every number.
"""

import pytest

from repro.ccmachine import CcMachine, CcStrategy, compile_cc_source
from repro.compiler import CompileOptions, compile_source
from repro.experiments import REGISTRY
from repro.experiments.figures import figure1, figure2, figure3, figure4
from repro.experiments.free_cycles import free_cycles
from repro.experiments.tables import (
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
)
from repro.reorg import OptLevel
from repro.sim import HazardMode, Machine
from repro.workloads import CORPUS, EXPECTED_OUTPUT, puzzle_source


@pytest.fixture(scope="module")
def word_refs():
    """Table 7 simulates the corpus: compute it once for its two readers."""
    return table7()


@pytest.fixture(scope="module")
def byte_refs():
    """Table 8 simulates the corpus: compute it once for its two readers."""
    return table8()


class TestFiguresExact:
    """Figures 1-3 reproduce the paper's numbers *exactly*."""

    def test_figure1(self):
        rows = figure1().rows
        assert rows["full evaluation: static"] == 8
        assert rows["full evaluation: avg executed"] == 7.0
        assert rows["full evaluation: branches executed"] == 2.0
        assert rows["early-out: static"] == 6
        assert rows["early-out: avg executed"] == 4.25

    def test_figure2(self):
        rows = figure2().rows
        assert rows["static instructions"] == 5
        assert rows["dynamic instructions"] == 5.0
        assert rows["branches"] == 0.0

    def test_figure3(self):
        rows = figure3().rows
        assert rows["static instructions"] == 3
        assert rows["dynamic instructions"] == 3.0
        assert rows["branches"] == 0

    def test_figure4_monotone(self):
        rows = figure4().rows
        counts = [
            rows["none: static words"],
            rows["reorganize: static words"],
            rows["pack: static words"],
            rows["branch-delay: static words"],
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < counts[0]
        # packing really happened on the fragment
        assert "|" in rows["reorganized listing"]


class TestTableShapes:
    def test_table1_coverage_claims(self):
        rows = table1().rows
        assert rows["4-bit coverage %"] > 60
        assert rows["4+8-bit coverage %"] > 90

    def test_table2_matches_paper_taxonomy(self):
        result = table2()
        assert result.rows["MIPS"].startswith("no condition code")
        assert result.rows["VAX"] == "set on moves and operations; branch"
        assert result.rows["360"] == "set on operations; branch"
        assert result.rows["M68000"] == "set on operations; conditional set"
        assert result.rows["PDP-10"].endswith("access")

    def test_table3_savings_small(self):
        rows = table3().rows
        assert rows["saved % (operators only)"] < 5.0
        assert rows["saved % (operators and moves)"] < 25.0
        assert rows["compares without condition codes"] > 100

    def test_table4_jump_dominates(self):
        rows = table4().rows
        assert rows["expressions ending in jumps %"] > rows["expressions ending in stores %"]
        # the inputs Table 6 weights by: jumps dominate, and expressions
        # average more than one operator
        assert rows["expressions ending in jumps %"] > 60.0
        assert rows["expressions ending in stores %"] > 2.0
        assert 1.0 <= rows["operators per boolean expression"] <= 3.0

    def test_table5_matches_paper(self):
        result = table5()
        for key, value in result.paper.items():
            assert result.rows[key] == value, key

    def test_table6_corpus_inputs_keep_set_conditionally_ahead(self):
        rows = table6(use_corpus_inputs=True).rows
        assert (
            rows["total set conditionally (no CC)"][0]
            < rows["total CC + branch, full evaluation"][0]
        )

    def test_table7_word_allocated_patterns(self, word_refs):
        rows = word_refs.rows
        # loads dominate stores over all data references
        assert rows["loads_percent"] > rows["stores_percent"]
        # objects allocated as full words dominate; 8-bit refs are the
        # packed-structure remainder
        assert rows["loads_32bit"] > rows["loads_8bit"]
        assert rows["loads_8bit"] < 10.0
        # character references store much more often than data overall
        assert rows["char_stores_percent"] > rows["stores_percent"] - 5.0

    def test_table8_byte_allocated_patterns(self, byte_refs):
        rows = byte_refs.rows
        assert rows["loads_percent"] > rows["stores_percent"]
        # byte allocation turns the unpacked character data into byte refs
        assert rows["loads_8bit"] > 0.5
        assert rows["loads_32bit"] > rows["loads_8bit"]

    def test_word_allocation_is_larger_but_byte_refs_fewer(self, word_refs, byte_refs):
        """Word allocation trades space for word-grain references (the
        paper: word-allocated globals ~20% larger)."""
        word, byte = word_refs.rows, byte_refs.rows
        assert word["globals region (words)"] > byte["globals region (words)"]
        assert word["loads_8bit"] < byte["loads_8bit"]
        assert word["stores_8bit"] < byte["stores_8bit"]

    def test_table9_matches_paper(self):
        result = table9()
        for key, value in result.paper.items():
            assert result.rows[key] == value, key

    def test_table10_word_addressing_wins(self):
        rows = table10().rows
        for allocation in ("word-allocated", "byte-allocated"):
            low, high = rows[f"{allocation}: byte addressing penalty %"]
            assert high > 3.0, "word addressing must win clearly"
            assert high < 25.0, "and by a plausible margin"

    def test_table10_measured_frequencies(self):
        rows = table10(use_measured_frequencies=True).rows
        for allocation in ("word-allocated", "byte-allocated"):
            low, high = rows[f"{allocation}: byte addressing penalty %"]
            assert high > 0.0, allocation

    def test_table11_every_program_improves_monotonically(self):
        rows = table11().rows
        for name in ("Fibbonacci", "Puzzle 0", "Puzzle 1"):
            counts = [
                rows[f"{name} / none"],
                rows[f"{name} / reorganize"],
                rows[f"{name} / pack"],
                rows[f"{name} / branch-delay"],
            ]
            assert counts == sorted(counts, reverse=True), name
            assert rows[f"{name} / total improvement %"] > 5.0

    def test_dynamic_speedup_accompanies_static_gain(self):
        """Beyond the paper: the reorganized code is also faster to run."""
        source = puzzle_source(0, limit=15)
        cycles = {}
        for level in (OptLevel.NONE, OptLevel.BRANCH_DELAY):
            machine = Machine(compile_source(source, opt_level=level).program)
            cycles[level] = machine.run(50_000_000).cycles
        assert cycles[OptLevel.BRANCH_DELAY] < cycles[OptLevel.NONE]

    def test_free_cycle_bandwidth(self):
        """Section 3.1: free memory cycles and the zero-cost DMA engine."""
        rows = free_cycles().rows
        # substantial bandwidth is free (the paper: close to 40% wasted)
        assert rows["free fraction (optimized/packed code)"] > 0.3
        # and the DMA engine recovers it without stealing processor cycles
        assert rows["DMA words moved (wordcount run)"] > 0


class TestAblations:
    """Each of the paper's tradeoffs, measured on compiled corpus code."""

    def test_simple_machine_holds_up(self):
        """The same source on the MIPS model and on the condition-code
        CISC baseline, priced with the paper's weights (register=1,
        compare=2, branch=4; every MIPS word costs 1 cycle).  The
        architectures' cycles are not commensurable, so only the
        direction is asserted."""
        ratios = {}
        for name in ("sort", "sieve", "scanner", "logic"):
            mips = Machine(compile_source(CORPUS[name]).program)
            mips.run(60_000_000)
            assert mips.output == EXPECTED_OUTPUT[name], name
            cc = CcMachine(compile_cc_source(CORPUS[name], CcStrategy.EARLY_OUT))
            cc.run(60_000_000)
            assert cc.output == EXPECTED_OUTPUT[name], name
            ratios[name] = cc.stats.weighted_cost / mips.stats.cycles
        # division-light programs: the simple pipelined machine must win
        assert ratios["sieve"] > 1.0, ratios
        assert ratios["scanner"] > 1.0, ratios
        # division-heavy programs lose only through the software divide
        # loop (the paper leaves divide to a coprocessor)
        assert ratios["sort"] > 0.3, ratios
        assert ratios["logic"] > 0.1, ratios

    def test_software_interlocks_beat_hardware(self):
        """Section 4.2.1: scheduled code on the interlock-free machine
        against naive code order on the INTERLOCKED machine."""
        for name in ("sort", "sieve", "scanner"):
            scheduled = compile_source(CORPUS[name], opt_level=OptLevel.BRANCH_DELAY)
            soft = Machine(scheduled.program, hazard_mode=HazardMode.BARE)
            soft.run(60_000_000)
            naive = compile_source(CORPUS[name], opt_level=OptLevel.NONE)
            hard = Machine(naive.program, hazard_mode=HazardMode.INTERLOCKED)
            hard.run(60_000_000)
            assert soft.output == hard.output, name
            assert soft.stats.cycles < hard.stats.cycles, name

    @staticmethod
    def _with_and_without_regalloc(name):
        return {
            ra: Machine(
                compile_source(CORPUS[name], CompileOptions(register_allocation=ra)).program
            ).run(60_000_000)
            for ra in (True, False)
        }

    def test_register_allocation_cuts_memory_traffic(self):
        """Section 2.2: keeping hot operands in registers saves memory
        traffic and addressing calculations."""
        for name in ("sort", "sieve", "scanner"):
            stats = self._with_and_without_regalloc(name)
            with_ra, without = stats[True], stats[False]
            assert with_ra.loads + with_ra.stores < without.loads + without.stores, name
            assert with_ra.cycles < without.cycles, name

    def test_unprofitable_promotion_is_declined(self):
        """fib's parameter is used too rarely to amortize the callee-save
        traffic; the allocator leaves it in memory."""
        stats = self._with_and_without_regalloc("fib_recursive")
        assert stats[True].cycles <= stats[False].cycles


class TestHarness:
    def test_registry_is_complete(self):
        expected = {f"table{i}" for i in range(1, 12)} | {
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "free_cycles",
        }
        assert set(REGISTRY) == expected

    def test_render_includes_paper_values(self):
        text = table5().render()
        assert "paper" in text

    @pytest.mark.parametrize(
        "name", ["table2", "table5", "table9", "figure1", "figure2", "figure3"]
    )
    def test_cheap_experiments_run(self, name):
        result = REGISTRY[name]()
        assert result.rows
