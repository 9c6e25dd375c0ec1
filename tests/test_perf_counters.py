"""Counter-group correctness: exact values from hand-assembled programs.

Every expected number below is hand-derived from the program text (and
the machine's delayed-branch/one-delay-slot semantics), then asserted
on **both** execution engines -- the counter layer's core contract is
that an attached profiler observes identical data under either one.
"""

import pytest

from repro.asm import assemble
from repro.perf import Profiler, collect, merge_groups, stable_groups
from repro.perf.counters import classify_word
from repro.sim import HazardMode, Machine

ENGINES = (True, False)
ENGINE_IDS = ("fast", "precise")


def _run(source, mode=HazardMode.BARE, fast=True):
    machine = Machine(assemble(source), hazard_mode=mode)
    profiler = Profiler().attach(machine.cpu)
    machine.run(10_000, fast=fast)
    return machine, profiler, stable_groups(collect(machine.cpu))


# one of each piece class, each executed exactly once
STRAIGHT = """
start:  mov #1, r1
        add #2, r1, r2
        add #5, r2, r3
        movi #100, r4
        lim #1000, r5
        st r1, @buf
        ld @buf, r6
        nop
        trap #0
buf:    .word 0
"""

# the bne's delay slot holds the halting trap, so every word runs once
LOOP = """
start:  mov #5, r1
loop:   sub r1, #1, r1
        bne r1, #0, loop
        trap #0
"""

# two structurally identical zero-test compares, both preceded by an
# ALU add that writes the tested register; only the first may count as
# CC-saveable, because `check` is a direct jump target (a join point,
# where Table 3's accounting says the codes can't be trusted)
TARGET_JOIN = """
start:  add #1, r0, r1
        add #1, r1, r1
        beq r1, #0, end
        jmp check
        nop
check:  beq r1, #0, end
end:    trap #0
"""


@pytest.mark.parametrize("fast", ENGINES, ids=ENGINE_IDS)
class TestExactCounts:
    def test_straight_line_mix(self, fast):
        _, _, groups = _run(STRAIGHT, fast=fast)
        assert groups["pipeline"] == {
            "cycles": 9,
            "words": 9,
            "pieces": 8,
            "noops": 1,
            "pieces_per_word": 0.889,
            "load_stalls": 0,
            "branch_flush_cycles": 0,
            "exceptions": 0,
        }
        assert groups["mix"] == {
            "add": 2,
            "lim": 1,
            "load": 1,
            "mov": 1,
            "movi": 1,
            "nop": 1,
            "store": 1,
            "trap": 1,
        }

    def test_straight_line_table1_buckets(self, fast):
        _, _, groups = _run(STRAIGHT, fast=fast)
        imm = groups["immediates"]
        # #1 -> ONE, #2 -> TWO, #5 -> SMALL, #100 -> BYTE, #1000 -> LARGE;
        # memory addresses and the trap code are not operand constants
        assert imm["1"] == 1 and imm["2"] == 1 and imm["3 - 15"] == 1
        assert imm["16 - 255"] == 1 and imm["> 255"] == 1 and imm["0"] == 0
        assert imm["total"] == 5
        assert imm["imm4_coverage_pct"] == 60.0
        assert imm["movi_coverage_pct"] == 80.0

    def test_loop_cc_savings(self, fast):
        _, _, groups = _run(LOOP, fast=fast)
        control = groups["control"]
        # the single executed bne zero-tests r1, freshly written by the
        # sub one word earlier: a condition code would have covered it
        assert control["branches"] == 1 and control["branches_taken"] == 1
        assert control["compares_executed"] == 1
        assert control["cc_saved_by_operators"] == 1
        assert control["cc_savings_operators_pct"] == 100.0

    def test_branch_target_join_excluded(self, fast):
        _, _, groups = _run(TARGET_JOIN, fast=fast)
        control = groups["control"]
        assert control["compares_executed"] == 2
        # first beq: saveable; second beq: same shape but a jump target
        assert control["cc_saved_by_operators"] == 1
        assert control["cc_savings_operators_pct"] == 50.0

    def test_memory_free_cycles(self, fast):
        machine, _, groups = _run(STRAIGHT, fast=fast)
        memory = groups["memory"]
        assert memory["loads"] == 1 and memory["stores"] == 1
        assert memory["memory_cycles_used"] == 2
        assert memory["free_memory_cycles"] == 7     # 9 words - 2 used
        assert memory["fetches"] == machine.stats.words


class TestEngineIdentity:
    @pytest.mark.parametrize("source", [STRAIGHT, LOOP, TARGET_JOIN])
    def test_stable_groups_identical(self, source):
        results = [_run(source, fast=fast)[2] for fast in ENGINES]
        assert results[0] == results[1]

    def test_engine_group_differs_but_is_excluded(self):
        machine, _, _ = _run(LOOP, fast=True)
        groups = collect(machine.cpu)
        assert groups["engine"]["fastpath_bursts"] > 0
        assert "engine" not in stable_groups(groups)


class TestStallAttribution:
    STALLY = """
start:  mov #3, r1
loop:   ld @val, r2
        add r2, #1, r3
        sub r1, #1, r1
        bne r1, #0, loop
        nop
        trap #0
val:    .word 7
"""

    @pytest.mark.parametrize("fast", ENGINES, ids=ENGINE_IDS)
    def test_interlocked_charges_reconcile(self, fast):
        """Attributed cycles account for every counted cycle, exactly."""
        machine, profiler, _ = _run(self.STALLY, mode=HazardMode.INTERLOCKED, fast=fast)
        stats = machine.stats
        assert sum(profiler.counts.values()) == stats.words
        assert sum(profiler.stall_cycles.values()) == stats.load_stalls == 3
        assert sum(profiler.flush_cycles.values()) == stats.branch_flush_cycles == 2
        assert profiler.total_cycles == stats.cycles == 20

    def test_charges_land_on_the_paying_words(self):
        _, profiler, _ = _run(self.STALLY, mode=HazardMode.INTERLOCKED, fast=True)
        # the add at word 2 consumes r2 in its load delay -> stalls
        # there; the bne at word 4 flushes its slot when taken
        assert profiler.stall_cycles == {2: 3}
        assert profiler.flush_cycles == {4: 2}

    def test_attribution_identical_across_engines(self):
        profs = [
            _run(self.STALLY, mode=HazardMode.INTERLOCKED, fast=fast)[1] for fast in ENGINES
        ]
        assert profs[0].counts == profs[1].counts
        assert profs[0].stall_cycles == profs[1].stall_cycles
        assert profs[0].flush_cycles == profs[1].flush_cycles


class TestClassifyWord:
    def test_mov_filler_operand_not_counted(self):
        machine = Machine(assemble("start: mov #1, r1\n trap #0"))
        machine.run(10)
        profile = classify_word(machine.cpu.step_plan(0).word)
        assert profile.ops == {"mov": 1}
        assert sum(profile.imm.values()) == 1   # only s1; the filler s2 is not a constant

    def test_noops_separate_from_pieces(self):
        machine = Machine(assemble("start: nop\n trap #0"))
        machine.run(10)
        profile = classify_word(machine.cpu.step_plan(0).word)
        assert profile.noops == 1 and profile.pieces == 0


class TestMergeGroups:
    def test_merge_equals_single_run_of_concatenation(self):
        """Summed shards re-derive the same ratios a monolithic run gets."""
        groups = [_run(LOOP, fast=True)[2], _run(STRAIGHT, fast=True)[2]]
        merged = merge_groups(groups)
        assert merged["pipeline"]["words"] == 4 + 9
        assert merged["immediates"]["total"] == 3 + 5
        # 6 of 8 constants fit imm4 across the two programs
        assert merged["immediates"]["imm4_coverage_pct"] == 75.0
        assert merged["control"]["compares_executed"] == 1
        assert merged["control"]["cc_savings_operators_pct"] == 100.0

    def test_merge_is_order_independent(self):
        groups = [_run(LOOP, fast=True)[2], _run(STRAIGHT, fast=True)[2]]
        assert merge_groups(groups) == merge_groups(list(reversed(groups)))
