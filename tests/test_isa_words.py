"""Instruction words and packing rules."""

from itertools import product

import pytest

from repro.isa.operations import PACKABLE_ALU_OPS, AluOp, Comparison
from repro.isa.pieces import (
    Absolute,
    Alu,
    CompareBranch,
    Displacement,
    Imm,
    Load,
    MovImm,
    Noop,
    SetCond,
    Store,
)
from repro.isa.registers import Reg
from repro.isa.words import (
    InstructionWord,
    PackingError,
    can_pack,
    canonical_alu,
    packable_form,
    packing_obstacle,
    words_from_pieces,
)

LD = Load(Displacement(Reg(14), 3), Reg(2))
ST = Store(Displacement(Reg(14), 0), Reg(5))
ADD = Alu(AluOp.ADD, Imm(1), Reg(4), Reg(4))


class TestPackingRules:
    def test_load_plus_alu_packs(self):
        assert can_pack(LD, ADD)

    def test_store_plus_alu_packs(self):
        assert can_pack(ST, ADD)

    def test_movi_packs(self):
        assert can_pack(LD, MovImm(200, Reg(4)))

    def test_absolute_addressing_rejected(self):
        assert not can_pack(Load(Absolute(100), Reg(2)), ADD)

    def test_long_displacement_rejected(self):
        far = Load(Displacement(Reg(14), 8), Reg(2))
        assert not can_pack(far, ADD)

    def test_negative_displacement_rejected(self):
        assert not can_pack(Load(Displacement(Reg(14), -1), Reg(2)), ADD)

    def test_immediate_second_source_rejected(self):
        bad = Alu(AluOp.ADD, Reg(4), Imm(1), Reg(4))
        assert not can_pack(LD, bad)

    def test_shift_with_register_source_packs(self):
        shift = Alu(AluOp.SLL, Reg(4), Imm(2), Reg(4))
        assert can_pack(LD, shift)

    def test_same_destination_rejected(self):
        clash = Alu(AluOp.ADD, Imm(1), Reg(4), Reg(2))  # writes the load dst
        assert packing_obstacle(LD, clash) == "both pieces write the same register"

    def test_flow_cannot_pack(self):
        branch = CompareBranch(Comparison.EQ, Reg(0), Reg(1), 5)
        assert not can_pack(LD, branch)

    def test_unpackable_opcode(self):
        ic = Alu(AluOp.IC, Reg(1), Imm(0), Reg(3))
        assert not can_pack(LD, ic)

    def test_setcond_not_in_alu_slot(self):
        setcond = SetCond(Comparison.EQ, Reg(1), Reg(2), Reg(3))
        assert not can_pack(LD, setcond)


class TestCanonicalForms:
    def test_commutative_swap(self):
        piece = Alu(AluOp.ADD, Reg(4), Imm(1), Reg(4))
        swapped = canonical_alu(piece)
        assert swapped == Alu(AluOp.ADD, Imm(1), Reg(4), Reg(4))

    def test_sub_becomes_rsub(self):
        piece = Alu(AluOp.SUB, Reg(4), Imm(1), Reg(4))
        assert canonical_alu(piece) == Alu(AluOp.RSUB, Imm(1), Reg(4), Reg(4))

    def test_register_operands_unchanged(self):
        piece = Alu(AluOp.SUB, Reg(4), Reg(5), Reg(6))
        assert canonical_alu(piece) is piece

    def test_packable_form_rescues_sub_immediate(self):
        piece = Alu(AluOp.SUB, Reg(4), Imm(1), Reg(4))
        form = packable_form(piece)
        assert form is not None
        assert can_pack(LD, form)

    def test_packable_form_rejects_flow(self):
        assert packable_form(CompareBranch(Comparison.EQ, Reg(0), Imm(0), 3)) is None

    def test_packable_form_semantics_preserved(self):
        from repro.isa.operations import alu_evaluate

        piece = Alu(AluOp.SUB, Reg(4), Imm(3), Reg(4))
        form = packable_form(piece)
        # original: r4 - 3; canonical rsub: s2 - s1 = r4 - 3
        assert alu_evaluate(piece.op, 10, 3) == alu_evaluate(form.op, 3, 10)


class TestInstructionWord:
    def test_empty_word_rejected(self):
        with pytest.raises(PackingError):
            InstructionWord()

    def test_single_routes_memory_to_mem_slot(self):
        word = InstructionWord.single(LD)
        assert word.mem is LD
        assert word.alu is None

    def test_single_routes_alu(self):
        word = InstructionWord.single(ADD)
        assert word.alu is ADD
        assert word.mem is None

    def test_packed_validates(self):
        with pytest.raises(PackingError):
            InstructionWord.packed(Load(Absolute(1), Reg(2)), ADD)

    def test_pieces_order_mem_first(self):
        word = InstructionWord.packed(LD, ADD)
        assert word.pieces == (LD, ADD)

    def test_uses_memory(self):
        assert InstructionWord.single(LD).uses_memory
        assert InstructionWord.packed(LD, ADD).uses_memory
        assert not InstructionWord.single(ADD).uses_memory
        assert not InstructionWord.nop().uses_memory

    def test_nop_detection(self):
        assert InstructionWord.nop().is_nop
        assert not InstructionWord.single(ADD).is_nop

    def test_flow_accessor(self):
        branch = CompareBranch(Comparison.EQ, Reg(0), Reg(1), 5)
        assert InstructionWord.single(branch).flow is branch
        assert InstructionWord.single(ADD).flow is None

    def test_reads_writes_union(self):
        word = InstructionWord.packed(LD, ADD)
        assert word.reads() == Reg(14).mask | Reg(4).mask
        assert word.writes() == Reg(2).mask | Reg(4).mask

    def test_packed_words_match_their_pieces_fields(self, register_spec):
        """A word's register sets are the union of its pieces' sets, each
        read off the piece's fields (``register_spec``, conftest), over
        every packable pair drawn from the fields below."""
        regs = (Reg(0), Reg(7), Reg(15))
        mems = [
            kind(Displacement(base, disp), reg)
            for kind, base, disp, reg in product((Load, Store), regs, (0, 7), regs)
        ]
        alus = [
            Alu(op, s1, s2, dst)
            for op, s1, s2, dst in product(PACKABLE_ALU_OPS, (*regs, Imm(3)), regs, regs)
        ]
        alus += [MovImm(200, dst) for dst in regs]
        packed = 0
        for mem, alu in product(mems, alus):
            if not can_pack(mem, alu):
                continue
            word = InstructionWord.packed(mem, alu)
            (mem_reads, mem_writes), (alu_reads, alu_writes) = map(register_spec, (mem, alu))
            assert word.reads() == mem_reads | alu_reads, word
            assert word.writes() == mem_writes | alu_writes, word
            packed += 1
        assert packed > len(mems) * len(alus) // 2

    def test_words_from_pieces(self):
        words = words_from_pieces([LD, ADD, Noop()])
        assert len(words) == 3
        assert all(not w.is_packed for w in words)
