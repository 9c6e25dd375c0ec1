"""The runtime library: software multiply and divide against Python oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble, assemble_pieces
from repro.compiler import runtime
from repro.compiler.runtime import DIVMOD_SOURCE, MUL_SOURCE, runtime_stream
from repro.isa.bits import s32, u32
from repro.isa.pieces import Noop
from repro.sim import HazardMode, Machine, TrapInstruction

HARNESS = """
start:  lim #{a}, r2
        lim #{b}, r3
        jal {routine}
        nop
        mov {result}, r1
        trap #1
        trap #0
"""

BIG_HARNESS = """
start:  lim #{a_high}, r2
        sll r2, #8, r2
        sll r2, #8, r2
        lim #{a_low}, r4
        or r2, r4, r2
        lim #{b_high}, r3
        sll r3, #8, r3
        sll r3, #8, r3
        lim #{b_low}, r4
        or r3, r4, r3
        jal {routine}
        nop
        mov {result}, r1
        trap #1
        trap #0
"""


def call_runtime(routine, a, b, result_reg):
    # runtime sources carry *sequential* semantics: they must pass
    # through the reorganizer (which owns delay-slot management), just
    # as the compiler driver does
    from repro.asm import assemble_pieces
    from repro.reorg import OptLevel, reorganize

    a32, b32 = u32(a), u32(b)
    source = BIG_HARNESS.format(
        a_high=(a32 >> 16) & 0xFFFF,
        a_low=a32 & 0xFFFF,
        b_high=(b32 >> 16) & 0xFFFF,
        b_low=b32 & 0xFFFF,
        routine=routine,
        result=result_reg,
    )
    body = MUL_SOURCE if routine == "__mul" else DIVMOD_SOURCE
    stream = assemble_pieces(source + body)
    program = reorganize(stream, OptLevel.BRANCH_DELAY).to_program(entry_symbol="start")
    machine = Machine(program, hazard_mode=HazardMode.CHECKED)
    machine.run(50_000)
    return machine.output[0]


class TestMultiply:
    @pytest.mark.parametrize(
        "a,b", [(0, 0), (1, 1), (3, 7), (0, 99), (1000, 1000), (-3, 7), (7, -3), (-5, -5)]
    )
    def test_basic(self, a, b):
        assert call_runtime("__mul", a, b, "r1") == s32(u32(a * b))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-(1 << 31), (1 << 31) - 1), st.integers(-(1 << 31), (1 << 31) - 1))
    def test_matches_modular_product(self, a, b):
        assert call_runtime("__mul", a, b, "r1") == s32(u32(a * b))


def pascal_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def pascal_mod(a, b):
    return a - pascal_div(a, b) * b


class TestDivMod:
    @pytest.mark.parametrize(
        "a,b",
        [
            (7, 2), (100, 7), (-100, 7), (100, -7), (-100, -7),
            (0, 5), (5, 5), (4, 5), (1 << 30, 3), (-(1 << 30), 3),
        ],
    )
    def test_quotient(self, a, b):
        assert call_runtime("__divmod", a, b, "r1") == pascal_div(a, b)

    @pytest.mark.parametrize(
        "a,b", [(7, 2), (100, 7), (-100, 7), (100, -7), (-100, -7), (0, 5)]
    )
    def test_remainder(self, a, b):
        assert call_runtime("__divmod", a, b, "r4") == pascal_mod(a, b)

    def test_divide_by_zero_traps(self):
        with pytest.raises(TrapInstruction) as info:
            call_runtime("__divmod", 1, 0, "r1")
        assert info.value.code == 5

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(-(1 << 30), (1 << 30) - 1),
        st.integers(-(1 << 15), (1 << 15) - 1).filter(lambda v: v != 0),
    )
    def test_div_identity(self, a, b):
        quotient = call_runtime("__divmod", a, b, "r1")
        remainder = call_runtime("__divmod", a, b, "r4")
        assert quotient * b + remainder == a
        assert abs(remainder) < abs(b)


def test_runtime_stream_assembles_once_and_returns_new_lists(monkeypatch):
    """Two calls with the same flags assemble the routines at most once
    between them, and each returns a list of its own."""
    calls = []

    def counting(source):
        calls.append(source)
        return assemble_pieces(source)

    monkeypatch.setattr(runtime, "assemble_pieces", counting)
    first = runtime_stream(True, True, True)
    first.append((None, Noop()))
    second = runtime_stream(True, True, True)
    assert len(calls) <= 1
    assert second == first[:-1]
