"""Assembler: parsing, two-pass resolution, directives, diagnostics."""

import pytest

from repro.asm import (
    AsmError,
    DuplicateSymbol,
    UndefinedSymbol,
    assemble,
    assemble_pieces,
    parse_integer,
)
from repro.isa.encoding import decode
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
    Rfs,
    Store,
    Trap,
    WriteSpecial,
)
from repro.isa.registers import Reg, SpecialReg
from repro.reorg import ALL_LEVELS, OptLevel, reorganize
from repro.sim import Machine


class TestParseInteger:
    @pytest.mark.parametrize(
        "text,value",
        [("42", 42), ("-7", -7), ("0x1F", 31), ("'a'", 97), ("'\\n'", 10), ("'\\0'", 0)],
    )
    def test_forms(self, text, value):
        assert parse_integer(text) == value

    def test_garbage(self):
        assert parse_integer("xyz") is None
        assert parse_integer("") is None


def first_piece(source):
    program = assemble(source)
    return program.fetch(min(program.instructions))


class TestInstructionParsing:
    def test_three_operand_alu(self):
        assert first_piece("add r1, r2, r3").pieces[0] == Alu(
            AluOp.ADD, Reg(1), Reg(2), Reg(3)
        )

    def test_immediate_operand(self):
        assert first_piece("sub #1, r2, r3").pieces[0] == Alu(
            AluOp.SUB, Imm(1), Reg(2), Reg(3)
        )

    def test_oversized_immediate_rejected(self):
        with pytest.raises(AsmError):
            assemble("add #16, r2, r3")

    def test_register_aliases(self):
        piece = first_piece("add sp, fp, ra").pieces[0]
        assert piece == Alu(AluOp.ADD, Reg(14), Reg(12), Reg(15))

    def test_mov_to_special(self):
        assert first_piece("mov r1, lo").pieces[0] == WriteSpecial(SpecialReg.LO, Reg(1))

    def test_mov_to_register(self):
        assert first_piece("mov r1, r2").pieces[0] == Alu(AluOp.MOV, Reg(1), Imm(0), Reg(2))

    def test_movi(self):
        assert first_piece("movi #200, r1").pieces[0] == MovImm(200, Reg(1))

    def test_lim(self):
        assert first_piece("lim #-100000, r1").pieces[0] == LoadImm(-100000, Reg(1))

    def test_addressing_modes(self):
        assert first_piece("ld 4(sp), r1").pieces[0].addr == Displacement(Reg(14), 4)
        assert first_piece("ld -4(sp), r1").pieces[0].addr == Displacement(Reg(14), -4)
        assert first_piece("ld (r2+r3), r1").pieces[0].addr == BaseIndex(Reg(2), Reg(3))
        assert first_piece("ld (r2>>2), r1").pieces[0].addr == BaseShifted(Reg(2), 2)
        assert first_piece("ld @99, r1").pieces[0].addr == Absolute(99)

    def test_store(self):
        piece = first_piece("st r1, 0(sp)").pieces[0]
        assert isinstance(piece, Store) and piece.src == Reg(1)

    def test_set_conditionally(self):
        piece = first_piece("slt r1, r2, r3").pieces[0]
        assert piece.cond is Comparison.LT

    def test_sett_avoids_store_collision(self):
        piece = first_piece("sett r1, r2, r3").pieces[0]
        assert piece.cond is Comparison.T

    def test_branches(self):
        src = "start: bhi r1, #3, start"
        piece = first_piece(src).pieces[0]
        assert piece.cond is Comparison.HI and piece.target == 0

    def test_jumps(self):
        assert first_piece("start: jmp start").pieces[0] == Jump(0)
        assert first_piece("start: jal start").pieces[0] == Jump(0, link=True)
        assert first_piece("jmpr ra").pieces[0] == JumpIndirect(Reg(15))

    def test_trap_and_rfs(self):
        assert first_piece("trap #99").pieces[0] == Trap(99)
        assert first_piece("rfs").pieces[0] == Rfs()

    def test_packed_syntax(self):
        word = first_piece("{ ld 0(sp), r1 | add #1, sp, sp }")
        assert word.is_packed

    def test_insert_byte_both_spellings(self):
        a = first_piece("ic r3, r2").pieces[0]
        b = first_piece("ic lo, r3, r2").pieces[0]
        assert a == b == Alu(AluOp.IC, Reg(3), Imm(0), Reg(2))

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            assemble("frobnicate r1")


class TestDirectives:
    def test_org_and_labels(self):
        program = assemble(".org 100\nstart: nop")
        assert program.symbols["start"] == 100

    def test_word_data(self):
        program = assemble("d: .word 1, -1, 'a'")
        base = program.symbol("d")
        assert program.memory[base] == 1
        assert program.memory[base + 1] == 0xFFFFFFFF
        assert program.memory[base + 2] == 97

    def test_word_symbolic(self):
        program = assemble("a: .word b\nb: .word 7")
        assert program.memory[program.symbol("a")] == program.symbol("b")

    def test_space(self):
        program = assemble("buf: .space 3\nend: nop")
        assert program.symbol("end") == program.symbol("buf") + 3

    def test_equ(self):
        program = assemble(".equ K, 7\nstart: mov #7, r1")
        assert program.symbols["K"] == 7

    def test_ascii_packs_four_per_word(self):
        program = assemble('s: .ascii "abcde"')
        base = program.symbol("s")
        assert program.memory[base] == 0x64636261  # 'abcd', low byte first
        assert program.memory[base + 1] == 0x65

    def test_duplicate_label(self):
        with pytest.raises(DuplicateSymbol):
            assemble("a: nop\na: nop")

    def test_undefined_symbol(self):
        with pytest.raises(AsmError):
            assemble("jmp nowhere")


class TestTwoPass:
    def test_forward_reference(self):
        program = assemble("start: jmp later\nnop\nlater: nop")
        assert program.fetch(0).pieces[0] == Jump(2)

    def test_memory_image_decodes(self):
        program = assemble("start: add r1, r2, r3\nnop")
        for addr in program.instructions:
            assert decode(program.memory[addr], addr) == program.fetch(addr)

    def test_entry_defaults_to_start(self):
        program = assemble(".org 5\nstart: nop")
        assert program.entry == 5

    def test_entry_falls_back_to_lowest(self):
        program = assemble(".org 7\nmain: nop")
        assert program.entry == 7


#: an undefined label in each piece that names one: a long immediate, a
#: jump and a compare-and-branch
UNDEFINED_LABELS = {
    "lim": "start: lim nowhere,r3\ntrap #0",
    "jmp": "start: jmp nowhere\nnop\ntrap #0",
    "branch": "start: beq r1,#0,nowhere\nnop\ntrap #0",
}


class TestUndefinedLabels:
    @pytest.mark.parametrize("form", UNDEFINED_LABELS)
    def test_reorganizer_names_the_label(self, form):
        stream = assemble_pieces(UNDEFINED_LABELS[form])
        for level in ALL_LEVELS:
            with pytest.raises(UndefinedSymbol, match="'nowhere'"):
                reorganize(stream, level).to_program()

    @pytest.mark.parametrize("form", UNDEFINED_LABELS)
    def test_assembler_names_the_label_and_its_line(self, form):
        with pytest.raises(UndefinedSymbol, match="'nowhere'") as info:
            assemble("; a first line\n" + UNDEFINED_LABELS[form])
        assert info.value.line == 2
        assert "nowhere" in info.value.source


class TestAssemblePieces:
    def test_labeled_stream(self):
        stream = assemble_pieces("a: nop\nadd r1, r2, r3\nb: nop")
        assert stream[0][0] == "a"
        assert stream[1][0] is None
        assert stream[2][0] == "b"

    def test_rejects_directives(self):
        with pytest.raises(AsmError):
            assemble_pieces(".word 1")

    def test_rejects_trailing_label(self):
        with pytest.raises(AsmError):
            assemble_pieces("nop\nend:")

    @pytest.mark.parametrize("line", ["ld @data,r3", "st r3, @data", "ld data(r2), r3"])
    def test_rejects_symbolic_memory_address(self, line):
        """No piece carries a symbolic address, so the reorganizer could
        neither see the register the access names nor encode it."""
        source = f"start: nop\n{line}\nadd r3,#1,r1\ntrap #1\ntrap #0\ndata: nop"
        with pytest.raises(AsmError, match="symbolic load/store address") as caught:
            assemble_pieces(source)
        assert caught.value.line == 2
        assert caught.value.source == line

    def test_symbolic_lim_becomes_load_label(self):
        stream = assemble_pieces("start: lim data,r3\nmov r3,r1\ntrap #1\ntrap #0\ndata: nop")
        assert stream[0] == ("start", LoadLabel("data", Reg(3)))
        for level in OptLevel:
            program = reorganize(stream, level).to_program(org=0, entry_symbol="start")
            machine = Machine(program)
            machine.run()
            assert machine.output == [program.symbol("data")] == [4]
