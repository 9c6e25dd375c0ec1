"""ALU operations and the sixteen comparisons."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.bits import MAX_INT32, MIN_INT32, s32, u32
from repro.isa.operations import (
    NEGATED_COMPARISON,
    SWAPPED_COMPARISON,
    AluOp,
    Comparison,
    alu_evaluate,
    alu_insert_byte,
    alu_overflows,
    compare,
)

words = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestAluBasics:
    def test_add_wraps(self):
        assert alu_evaluate(AluOp.ADD, 0xFFFFFFFF, 1) == 0

    def test_sub_order(self):
        assert alu_evaluate(AluOp.SUB, 10, 3) == 7

    def test_rsub_reverses(self):
        assert alu_evaluate(AluOp.RSUB, 3, 10) == 7

    def test_rsub_expresses_negation(self):
        # rsub #k, 0 computes -k: the paper's negative-constant idiom
        assert s32(alu_evaluate(AluOp.RSUB, 5, 0)) == -5

    def test_logical_ops(self):
        assert alu_evaluate(AluOp.AND, 0b1100, 0b1010) == 0b1000
        assert alu_evaluate(AluOp.OR, 0b1100, 0b1010) == 0b1110
        assert alu_evaluate(AluOp.XOR, 0b1100, 0b1010) == 0b0110

    def test_shifts(self):
        assert alu_evaluate(AluOp.SLL, 1, 4) == 16
        assert alu_evaluate(AluOp.SRL, 0x80000000, 31) == 1
        assert alu_evaluate(AluOp.SRA, 0x80000000, 31) == 0xFFFFFFFF

    def test_shift_amount_mod_32(self):
        assert alu_evaluate(AluOp.SLL, 1, 32) == 1

    def test_mov_ignores_s2(self):
        assert alu_evaluate(AluOp.MOV, 42, 999) == 42

    def test_not(self):
        assert alu_evaluate(AluOp.NOT, 0, 0) == 0xFFFFFFFF

    def test_ic_requires_special_path(self):
        with pytest.raises(ValueError):
            alu_evaluate(AluOp.IC, 0, 0)

    @given(words, words)
    def test_add_matches_modular(self, a, b):
        assert alu_evaluate(AluOp.ADD, a, b) == (a + b) % (1 << 32)


class TestByteOps:
    def test_extract_each_byte(self):
        word = 0x44332211
        for selector, expected in enumerate((0x11, 0x22, 0x33, 0x44)):
            assert alu_evaluate(AluOp.XC, selector, word) == expected

    def test_extract_uses_low_two_bits(self):
        assert alu_evaluate(AluOp.XC, 4, 0x44332211) == 0x11

    def test_insert_each_byte(self):
        for selector in range(4):
            result = alu_insert_byte(selector, 0xAB, 0)
            assert result == 0xAB << (8 * selector)

    def test_insert_preserves_other_bytes(self):
        result = alu_insert_byte(1, 0xFF, 0x44332211)
        assert result == 0x4433FF11

    def test_insert_takes_low_byte_of_source(self):
        assert alu_insert_byte(0, 0x1234, 0) == 0x34

    @given(st.integers(min_value=0, max_value=3), words, words)
    def test_insert_then_extract(self, selector, source, word):
        inserted = alu_insert_byte(selector, source, word)
        assert alu_evaluate(AluOp.XC, selector, inserted) == source & 0xFF


class TestOverflowDetection:
    def test_add_overflow(self):
        assert alu_overflows(AluOp.ADD, 0x7FFFFFFF, 1)

    def test_sub_overflow(self):
        assert alu_overflows(AluOp.SUB, 0x80000000, 1)

    def test_rsub_overflow_checks_reversed(self):
        assert alu_overflows(AluOp.RSUB, 1, 0x80000000)

    def test_logical_never_overflow(self):
        assert not alu_overflows(AluOp.AND, 0xFFFFFFFF, 0xFFFFFFFF)
        assert not alu_overflows(AluOp.SLL, 0xFFFFFFFF, 31)


class TestComparisons:
    def test_exactly_sixteen(self):
        assert len(Comparison) == 16

    def test_signed_vs_unsigned(self):
        minus_one = u32(-1)
        assert compare(Comparison.LT, minus_one, 1)     # signed: -1 < 1
        assert not compare(Comparison.LO, minus_one, 1)  # unsigned: big
        assert compare(Comparison.HI, minus_one, 1)

    def test_equality(self):
        assert compare(Comparison.EQ, 5, 5)
        assert compare(Comparison.NE, 5, 6)

    def test_constant_outcomes(self):
        assert compare(Comparison.T, 0, 0)
        assert not compare(Comparison.F, 1, 1)

    def test_bit_tests(self):
        assert compare(Comparison.BC, 0b0101, 0b1010)
        assert compare(Comparison.BS, 0b0101, 0b0100)
        assert compare(Comparison.NBC, 0b0101, 0b1111)
        assert compare(Comparison.NBS, 0b0101, 0b0001)

    @given(words, words, st.sampled_from(list(Comparison)))
    def test_negation_table(self, a, b, cond):
        assert compare(NEGATED_COMPARISON[cond], a, b) == (not compare(cond, a, b))

    @given(words, words, st.sampled_from(sorted(SWAPPED_COMPARISON, key=lambda c: c.value)))
    def test_swap_table(self, a, b, cond):
        assert compare(SWAPPED_COMPARISON[cond], b, a) == compare(cond, a, b)

    @given(words, words)
    def test_signed_trichotomy(self, a, b):
        outcomes = [
            compare(Comparison.LT, a, b),
            compare(Comparison.EQ, a, b),
            compare(Comparison.GT, a, b),
        ]
        assert sum(outcomes) == 1


# ---------------------------------------------------------------------------
# the spec: every table entry, through the public evaluators, against plain
# big-int definitions.  Both engines read the one table in
# repro.isa.operations, so comparing them with each other cannot catch a
# wrong entry; these definitions can.
# ---------------------------------------------------------------------------

EDGES = (0, 1, 15, 16, 255, 2**31 - 1, 2**31, 2**32 - 1)
#: the edge values plus the shift amounts 31 and 32
VALUES = EDGES + (31, 32)


def _dstep(remainder, divisor):
    shifted = u32(remainder << 1)
    if shifted >= divisor:
        return u32(shifted - divisor) | 1
    return shifted & ~1 & 0xFFFFFFFF


def _insert_byte(selector, source, word):
    shift = (selector & 3) * 8
    return (word & ~(0xFF << shift) & 0xFFFFFFFF) | ((source & 0xFF) << shift)


def _out_of_range(value):
    return not MIN_INT32 <= value <= MAX_INT32


#: every two-source op on u32 operands
SPEC_ALU = {
    AluOp.ADD: lambda a, b: u32(a + b),
    AluOp.SUB: lambda a, b: u32(a - b),
    AluOp.RSUB: lambda a, b: u32(b - a),
    AluOp.AND: lambda a, b: a & b,
    AluOp.OR: lambda a, b: a | b,
    AluOp.XOR: lambda a, b: a ^ b,
    AluOp.SLL: lambda a, b: u32(a << (b & 31)),
    AluOp.SRL: lambda a, b: a >> (b & 31),
    AluOp.SRA: lambda a, b: u32(s32(a) >> (b & 31)),
    AluOp.MOV: lambda a, b: a,
    AluOp.NOT: lambda a, b: u32(~a),
    AluOp.XC: lambda a, b: (b >> ((a & 3) * 8)) & 0xFF,
    AluOp.MSTEP: lambda a, b: u32(a * 2 + b),
    AluOp.DSTEP: _dstep,
}

SPEC_OVERFLOW = {
    AluOp.ADD: lambda a, b: _out_of_range(s32(a) + s32(b)),
    AluOp.SUB: lambda a, b: _out_of_range(s32(a) - s32(b)),
    AluOp.RSUB: lambda a, b: _out_of_range(s32(b) - s32(a)),
}

SPEC_COMPARE = {
    Comparison.EQ: lambda a, b: a == b,
    Comparison.NE: lambda a, b: a != b,
    Comparison.LT: lambda a, b: s32(a) < s32(b),
    Comparison.LE: lambda a, b: s32(a) <= s32(b),
    Comparison.GT: lambda a, b: s32(a) > s32(b),
    Comparison.GE: lambda a, b: s32(a) >= s32(b),
    Comparison.LO: lambda a, b: a < b,
    Comparison.LS: lambda a, b: a <= b,
    Comparison.HI: lambda a, b: a > b,
    Comparison.HS: lambda a, b: a >= b,
    Comparison.T: lambda a, b: True,
    Comparison.F: lambda a, b: False,
    Comparison.BC: lambda a, b: (a & b) == 0,
    Comparison.BS: lambda a, b: (a & b) != 0,
    Comparison.NBC: lambda a, b: (a & u32(~b)) == 0,
    Comparison.NBS: lambda a, b: (a & u32(~b)) != 0,
}


def _overflow_spec(op):
    return SPEC_OVERFLOW.get(op, lambda a, b: False)


class TestSpec:
    @pytest.mark.parametrize("op", [op for op in AluOp if op is not AluOp.IC], ids=str)
    def test_alu_on_edges(self, op):
        for a in VALUES:
            for b in VALUES:
                assert alu_evaluate(op, a, b) == SPEC_ALU[op](a, b), (a, b)

    def test_insert_byte_on_edges(self):
        for selector in VALUES:
            for source in VALUES:
                for word in VALUES:
                    expected = _insert_byte(selector, source, word)
                    assert alu_insert_byte(selector, source, word) == expected

    @pytest.mark.parametrize("op", list(AluOp), ids=str)
    def test_overflow_on_edges(self, op):
        for a in VALUES:
            for b in VALUES:
                assert alu_overflows(op, a, b) == _overflow_spec(op)(a, b), (a, b)

    @pytest.mark.parametrize("cond", list(Comparison), ids=str)
    def test_compare_on_edges(self, cond):
        for a in VALUES:
            for b in VALUES:
                assert compare(cond, a, b) == SPEC_COMPARE[cond](a, b), (a, b)

    @given(words, words, words)
    def test_every_entry_on_words(self, a, b, w):
        for op, spec in SPEC_ALU.items():
            assert alu_evaluate(op, a, b) == spec(a, b), op
        assert alu_insert_byte(a, b, w) == _insert_byte(a, b, w)
        for op in AluOp:
            assert alu_overflows(op, a, b) == _overflow_spec(op)(a, b), op
        for cond, spec in SPEC_COMPARE.items():
            assert compare(cond, a, b) == spec(a, b), cond
