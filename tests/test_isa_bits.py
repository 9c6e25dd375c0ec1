"""32-bit arithmetic helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.bits import (
    MAX_INT32,
    MIN_INT32,
    fits_signed,
    fits_unsigned,
    s32,
    sign_extend,
    u32,
)
from repro.isa.operations import AluOp, alu_evaluate, alu_overflows


class TestU32S32:
    def test_u32_wraps_negative(self):
        assert u32(-1) == 0xFFFFFFFF

    def test_u32_wraps_large(self):
        assert u32(1 << 32) == 0

    def test_s32_of_high_bit(self):
        assert s32(0x80000000) == MIN_INT32

    def test_s32_of_max(self):
        assert s32(0x7FFFFFFF) == MAX_INT32

    def test_identity_for_small_values(self):
        assert u32(42) == 42
        assert s32(42) == 42

    @given(st.integers())
    def test_round_trip(self, value):
        assert u32(s32(value)) == u32(value)

    @given(st.integers())
    def test_s32_range(self, value):
        assert MIN_INT32 <= s32(value) <= MAX_INT32


class TestSignExtend:
    def test_positive(self):
        assert sign_extend(0b0111, 4) == 7

    def test_negative(self):
        assert sign_extend(0b1111, 4) == -1

    def test_wider_field(self):
        assert sign_extend(0x8000, 16) == -32768

    def test_masks_high_bits(self):
        assert sign_extend(0x1F3, 4) == 3

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            sign_extend(1, 0)

    @given(st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))
    def test_round_trip_16(self, value):
        assert sign_extend(value & 0xFFFF, 16) == value


class TestFits:
    def test_unsigned_bounds(self):
        assert fits_unsigned(0, 4)
        assert fits_unsigned(15, 4)
        assert not fits_unsigned(16, 4)
        assert not fits_unsigned(-1, 4)

    def test_signed_bounds(self):
        assert fits_signed(-8, 4)
        assert fits_signed(7, 4)
        assert not fits_signed(8, 4)
        assert not fits_signed(-9, 4)


class TestWrappingArithmetic:
    @given(st.integers(), st.integers())
    def test_add32_matches_modular(self, a, b):
        assert alu_evaluate(AluOp.ADD, a, b) == (a + b) % (1 << 32)

    @given(st.integers(), st.integers())
    def test_sub32_matches_modular(self, a, b):
        assert alu_evaluate(AluOp.SUB, a, b) == (a - b) % (1 << 32)


class TestOverflow:
    def test_add_overflow_at_max(self):
        assert alu_overflows(AluOp.ADD, MAX_INT32, 1)

    def test_add_no_overflow(self):
        assert not alu_overflows(AluOp.ADD, MAX_INT32, 0)
        assert not alu_overflows(AluOp.ADD, -5, 3)

    def test_sub_overflow_at_min(self):
        assert alu_overflows(AluOp.SUB, MIN_INT32, 1)

    def test_sub_no_overflow(self):
        assert not alu_overflows(AluOp.SUB, 0, MAX_INT32)

    @given(st.integers(min_value=MIN_INT32, max_value=MAX_INT32),
           st.integers(min_value=MIN_INT32, max_value=MAX_INT32))
    def test_overflow_iff_result_out_of_range(self, a, b):
        assert alu_overflows(AluOp.ADD, a, b) == not_in_range(a + b)


def not_in_range(value: int) -> bool:
    return not (MIN_INT32 <= value <= MAX_INT32)
