"""Instruction pieces: register sets, flags, validation."""

from itertools import product

import pytest

from repro.isa.operations import AluOp, Comparison
from repro.isa.pieces import (
    Absolute,
    Alu,
    BaseIndex,
    BaseShifted,
    CompareBranch,
    Displacement,
    Imm,
    Jump,
    JumpIndirect,
    Load,
    LoadImm,
    LoadLabel,
    MovImm,
    Noop,
    Piece,
    ReadSpecial,
    Rfs,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from repro.isa.registers import RA, Reg, SpecialReg


class TestOperandValidation:
    def test_imm_range(self):
        Imm(0)
        Imm(15)
        with pytest.raises(ValueError):
            Imm(16)
        with pytest.raises(ValueError):
            Imm(-1)

    def test_movi_range(self):
        MovImm(255, Reg(1))
        with pytest.raises(ValueError):
            MovImm(256, Reg(1))

    def test_loadimm_range(self):
        LoadImm(LoadImm.LIMIT - 1, Reg(1))
        LoadImm(-LoadImm.LIMIT, Reg(1))
        with pytest.raises(ValueError):
            LoadImm(LoadImm.LIMIT, Reg(1))

    def test_trap_code_range(self):
        Trap(4095)
        with pytest.raises(ValueError):
            Trap(4096)

    def test_base_shift_range(self):
        BaseShifted(Reg(0), 1)
        BaseShifted(Reg(0), 4)
        with pytest.raises(ValueError):
            BaseShifted(Reg(0), 0)
        with pytest.raises(ValueError):
            BaseShifted(Reg(0), 5)

    def test_displacement_range(self):
        Displacement(Reg(0), Displacement.LIMIT - 1)
        with pytest.raises(ValueError):
            Displacement(Reg(0), Displacement.LIMIT)


class TestReadsWrites:
    def test_alu_reads_both_registers(self):
        piece = Alu(AluOp.ADD, Reg(1), Reg(2), Reg(3))
        assert piece.reads() == Reg(1).mask | Reg(2).mask
        assert piece.writes() == Reg(3).mask

    def test_alu_immediates_read_nothing(self):
        piece = Alu(AluOp.ADD, Imm(1), Reg(2), Reg(3))
        assert piece.reads() == Reg(2).mask

    def test_mov_ignores_s2(self):
        piece = Alu(AluOp.MOV, Reg(1), Reg(9), Reg(3))
        assert piece.reads() == Reg(1).mask

    def test_insert_byte_reads_destination_and_lo(self):
        piece = Alu(AluOp.IC, Reg(1), Imm(0), Reg(3))
        # partial update: the old value is an input, as is the selector
        assert piece.reads() == Reg(1).mask | Reg(3).mask | SpecialReg.LO.mask

    def test_load_reads_address_registers(self):
        assert Load(BaseIndex(Reg(1), Reg(2)), Reg(3)).reads() == Reg(1).mask | Reg(2).mask
        assert Load(Absolute(100), Reg(3)).reads() == 0

    def test_store_reads_source_and_address(self):
        piece = Store(Displacement(Reg(1), 4), Reg(2))
        assert piece.reads() == Reg(1).mask | Reg(2).mask
        assert piece.writes() == 0

    def test_jump_link_writes_ra(self):
        assert Jump("f", link=True).writes() == RA.mask
        assert Jump("f").writes() == 0

    def test_compare_branch_reads_operands(self):
        piece = CompareBranch(Comparison.LT, Reg(1), Imm(5), "L")
        assert piece.reads() == Reg(1).mask

    def test_setcond_is_not_flow(self):
        assert not SetCond(Comparison.EQ, Reg(1), Reg(2), Reg(3)).is_flow


#: fields that tell register sets apart: the lowest, a middle and the
#: top register, a destination that is also a source, immediates at both
#: ends, and every address mode (one naming a register twice)
_OPERANDS = (Reg(0), Reg(7), Reg(15), Imm(0), Imm(15))
_DSTS = (Reg(0), Reg(7), Reg(15))
_ADDRESSES = (
    Absolute(100),
    Displacement(Reg(7), -2),
    BaseIndex(Reg(0), Reg(15)),
    BaseIndex(Reg(3), Reg(3)),
    BaseShifted(Reg(15), 2),
)


def _every_piece():
    """Every piece class over the fields above."""
    yield from (Noop(), Rfs(), Trap(0))
    for op, s1, s2, dst in product(AluOp, _OPERANDS, _OPERANDS, _DSTS):
        yield Alu(op, s1, s2, dst)
    for cond, s1, s2 in product((Comparison.EQ, Comparison.LT), _OPERANDS, _OPERANDS):
        yield CompareBranch(cond, s1, s2, "L")
        yield from (SetCond(cond, s1, s2, dst) for dst in _DSTS)
    for dst in _DSTS:
        yield from (MovImm(255, dst), LoadImm(-5, dst), LoadLabel("f", dst))
        for addr in _ADDRESSES:
            yield from (Load(addr, dst), Store(addr, dst))
        yield from (JumpIndirect(dst, link) for link in (False, True))
        yield from (ReadSpecial(sreg, dst) for sreg in SpecialReg)
    yield from (Jump("f", link) for link in (False, True))
    for sreg, src in product(SpecialReg, _OPERANDS):
        yield WriteSpecial(sreg, src)


class TestRegisterSetSpec:
    def test_every_piece_matches_its_fields(self, register_spec):
        """``reads()``/``writes()`` of every piece class equal the register
        sets read off the piece's fields (``register_spec``, conftest)."""
        pieces = list(_every_piece())
        classes = {cls for cls in Piece.__subclasses__() if cls.__module__ == Piece.__module__}
        assert {type(piece) for piece in pieces} == classes
        for piece in pieces:
            assert (piece.reads(), piece.writes()) == register_spec(piece), piece


class TestFlags:
    def test_delay_slots(self):
        assert CompareBranch(Comparison.EQ, Reg(0), Reg(1), "L").delay_slots == 1
        assert Jump("L").delay_slots == 1
        assert JumpIndirect(Reg(1)).delay_slots == 2
        assert Trap(1).delay_slots == 0

    def test_flow_flags(self):
        assert Jump("L").is_flow
        assert Rfs().is_flow
        assert not Load(Absolute(0), Reg(1)).is_flow

    def test_memory_flags(self):
        assert Load(Absolute(0), Reg(1)).is_load
        assert Store(Absolute(0), Reg(1)).is_store
        assert Load(Absolute(0), Reg(1)).is_memory
        assert not Noop().is_memory

    def test_privilege(self):
        assert Rfs().privileged
        assert ReadSpecial(SpecialReg.SURPRISE, Reg(1)).privileged
        assert WriteSpecial(SpecialReg.SEG_PID, Reg(1)).privileged
        # the byte selector is user-accessible (store-byte sequences)
        assert not WriteSpecial(SpecialReg.LO, Reg(1)).privileged
        assert not ReadSpecial(SpecialReg.LO, Reg(1)).privileged


class TestNotes:
    def test_note_does_not_affect_equality(self):
        a = Load(Absolute(5), Reg(1), note="load:32:word")
        b = Load(Absolute(5), Reg(1))
        assert a == b

    def test_note_preserved(self):
        assert Store(Absolute(5), Reg(1), note="store:8:char").note == "store:8:char"
