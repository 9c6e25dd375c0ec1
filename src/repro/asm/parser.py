"""Parser for MIPS assembly source.

Syntax overview (one statement per line, ``;`` starts a comment)::

    .org 0
    .equ BUFSIZE, 64
    buf: .space BUFSIZE
    msg: .ascii "hello"
    tbl: .word 1, 2, 3, msg

    start:
        lim buf, r2          ; long immediate (symbols allowed)
        movi #200, r3        ; 8-bit move immediate
        add #1, r2, r2       ; 4-bit operand constant
        ld 2(ap), r0         ; displacement(base)
        ld (r2+r3), r1       ; (base+index)
        ld (r0>>2), r1       ; base shifted (packed byte arrays)
        ld @buf, r1          ; absolute
        st r1, 0(sp)
        xc r0, r1, r1        ; extract byte
        mov r1, lo           ; load the byte selector
        ic r3, r2            ; insert byte (selector in lo)
        seq r2, r3, r4       ; set conditionally
        ble r0, #1, done     ; compare-and-branch (1 delay slot)
        nop
        jal fib              ; direct call (1 delay slot)
        nop
        jmpr ra              ; indirect jump (2 delay slots)
        nop
        nop
        trap #17
        { ld 0(sp), r1 | add #1, sp, sp }   ; explicitly packed word
    done:

Register operands accept ``rN`` and the conventional aliases ``rv fp ap
sp ra``; ``#N`` immediates accept decimal, ``0x`` hex, and ``'c'``
character constants.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from ..isa.operations import AluOp, Comparison
from ..isa.pieces import (
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
    MovImm,
    Noop,
    Operand,
    Piece,
    ReadSpecial,
    Rfs,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from ..isa.registers import REGISTER_ALIASES, Reg, SpecialReg
from .errors import AsmError
from .statements import (
    Ascii,
    Equ,
    Label,
    Org,
    PackedStmt,
    PieceStmt,
    SourceStatement,
    Space,
    WordData,
)

_THREE_OPERAND_ALU = {
    "add": AluOp.ADD,
    "sub": AluOp.SUB,
    "rsub": AluOp.RSUB,
    "and": AluOp.AND,
    "or": AluOp.OR,
    "xor": AluOp.XOR,
    "sll": AluOp.SLL,
    "srl": AluOp.SRL,
    "sra": AluOp.SRA,
    "mstep": AluOp.MSTEP,
    "dstep": AluOp.DSTEP,
    "xc": AluOp.XC,
}

_SET_MNEMONICS = {f"s{c.value}": c for c in Comparison}
# 'st' would collide with the store mnemonic; the always/never sets are
# spelled out.
del _SET_MNEMONICS["st"]
del _SET_MNEMONICS["sf"]
_SET_MNEMONICS["sett"] = Comparison.T
_SET_MNEMONICS["setf"] = Comparison.F

_BRANCH_MNEMONICS = {f"b{c.value}": c for c in Comparison}

_SPECIAL_REGS = {s.value: s for s in SpecialReg}

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")
_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == ";" and not in_string:
            break
        out.append(ch)
    return "".join(out).strip()


def _split_operands(text: str) -> List[str]:
    """Split on top-level commas (commas inside parens/strings are kept)."""
    parts: List[str] = []
    depth = 0
    in_string = False
    current = []
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if not in_string:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append("".join(current).strip())
                current = []
                continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_integer(text: str) -> Optional[int]:
    """Parse a numeric literal: decimal, 0x hex, or 'c' character."""
    text = text.strip()
    if not text:
        return None
    negative = text.startswith("-")
    body = text[1:] if negative else text
    if len(text) >= 3 and text[0] == "'" and text[-1] == "'":
        inner = text[1:-1]
        unescaped = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\'": "'", "\\\\": "\\"}.get(inner, inner)
        if len(unescaped) != 1:
            return None
        return ord(unescaped)
    try:
        value = int(body, 0)
    except ValueError:
        return None
    return -value if negative else value


class LineParser:
    """Parses one source line into zero or more statements."""

    def __init__(self, line_number: int, source: str):
        self.line_number = line_number
        self.source = source

    def error(self, message: str) -> AsmError:
        return AsmError(message, self.line_number, self.source)

    # -- operand parsing ---------------------------------------------------

    def parse_register(self, text: str) -> Reg:
        text = text.strip().lower()
        if text in REGISTER_ALIASES:
            return Reg(REGISTER_ALIASES[text])
        if re.fullmatch(r"r\d+", text):
            number = int(text[1:])
            if number < 16:
                return Reg(number)
        raise self.error(f"expected a register, got {text!r}")

    def parse_operand(self, text: str) -> Operand:
        """A register or a ``#N`` short immediate (0-15)."""
        text = text.strip()
        if text.startswith("#"):
            value = parse_integer(text[1:])
            if value is None:
                raise self.error(f"bad immediate {text!r}")
            if not 0 <= value <= 15:
                raise self.error(
                    f"operand constant {value} exceeds the 4-bit range 0..15 "
                    "(use movi/lim or a reverse operator)"
                )
            return Imm(value)
        return self.parse_register(text)

    def parse_value_or_symbol(self, text: str) -> Union[int, str]:
        text = text.strip()
        if text.startswith("#"):
            text = text[1:].strip()
        value = parse_integer(text)
        if value is not None:
            return value
        if _SYMBOL_RE.match(text):
            return text
        raise self.error(f"expected a number or symbol, got {text!r}")

    def parse_address(self, text: str):
        """One of the four memory addressing modes (symbolic values allowed).

        Returns either an Address or a tuple marking a symbolic form the
        assembler must resolve: ``("abs", sym)`` or ``("disp", sym, base)``.
        """
        text = text.strip()
        if text.startswith("@"):
            value = self.parse_value_or_symbol(text[1:])
            if isinstance(value, int):
                return Absolute(value)
            return ("abs", value)
        shifted = re.fullmatch(r"\(\s*([A-Za-z0-9_]+)\s*>>\s*(\d+)\s*\)", text)
        if shifted:
            return BaseShifted(self.parse_register(shifted.group(1)), int(shifted.group(2)))
        indexed = re.fullmatch(r"\(\s*([A-Za-z0-9_]+)\s*\+\s*([A-Za-z0-9_]+)\s*\)", text)
        if indexed:
            return BaseIndex(
                self.parse_register(indexed.group(1)), self.parse_register(indexed.group(2))
            )
        disp = re.fullmatch(r"(-?[A-Za-z0-9_']*)\s*\(\s*([A-Za-z0-9_]+)\s*\)", text)
        if disp:
            base = self.parse_register(disp.group(2))
            offset_text = disp.group(1) or "0"
            value = self.parse_value_or_symbol(offset_text)
            if isinstance(value, int):
                return Displacement(base, value)
            return ("disp", value, base)
        raise self.error(f"bad address {text!r}")

    # -- statement parsing ---------------------------------------------------

    def parse_piece(self, text: str) -> Piece:
        """Parse one instruction piece (mnemonic + operands)."""
        text = text.strip()
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = _split_operands(operand_text) if operand_text else []

        def arity(n: int) -> List[str]:
            if len(operands) != n:
                raise self.error(f"{mnemonic} expects {n} operands, got {len(operands)}")
            return operands

        if mnemonic == "nop":
            arity(0)
            return Noop()

        if mnemonic == "rfs":
            arity(0)
            return Rfs()

        if mnemonic in _THREE_OPERAND_ALU:
            a, b, c = arity(3)
            return Alu(
                _THREE_OPERAND_ALU[mnemonic],
                self.parse_operand(a),
                self.parse_operand(b),
                self.parse_register(c),
            )

        if mnemonic in ("mov", "not"):
            a, b = arity(2)
            if b.strip().lower() in _SPECIAL_REGS and mnemonic == "mov":
                return WriteSpecial(_SPECIAL_REGS[b.strip().lower()], self.parse_operand(a))
            op = AluOp.MOV if mnemonic == "mov" else AluOp.NOT
            return Alu(op, self.parse_operand(a), Imm(0), self.parse_register(b))

        if mnemonic == "movi":
            a, b = arity(2)
            value = parse_integer(a.lstrip("#"))
            if value is None or not 0 <= value <= 255:
                raise self.error(f"movi constant must be 0..255, got {a!r}")
            return MovImm(value, self.parse_register(b))

        if mnemonic == "lim":
            a, b = arity(2)
            value = self.parse_value_or_symbol(a)
            dst = self.parse_register(b)
            if isinstance(value, int):
                return LoadImm(value, dst)
            # symbolic long immediate: resolved by the assembler
            return _SymbolicLim(value, dst)

        if mnemonic == "ic":
            # 'ic src,dst' or the paper's 'ic lo,src,dst'
            if len(operands) == 3 and operands[0].strip().lower() == "lo":
                operands.pop(0)
            a, b = arity(2)
            return Alu(AluOp.IC, self.parse_operand(a), Imm(0), self.parse_register(b))

        if mnemonic == "ld":
            a, b = arity(2)
            address = self.parse_address(a)
            dst = self.parse_register(b)
            if isinstance(address, tuple):
                return _SymbolicMem(False, address, dst)
            return Load(address, dst)

        if mnemonic == "st":
            a, b = arity(2)
            src = self.parse_register(a)
            address = self.parse_address(b)
            if isinstance(address, tuple):
                return _SymbolicMem(True, address, src)
            return Store(address, src)

        if mnemonic in _SET_MNEMONICS:
            a, b, c = arity(3)
            return SetCond(
                _SET_MNEMONICS[mnemonic],
                self.parse_operand(a),
                self.parse_operand(b),
                self.parse_register(c),
            )

        if mnemonic in _BRANCH_MNEMONICS:
            a, b, c = arity(3)
            return CompareBranch(
                _BRANCH_MNEMONICS[mnemonic],
                self.parse_operand(a),
                self.parse_operand(b),
                self.parse_target(c),
            )

        if mnemonic in ("jmp", "jal"):
            (a,) = arity(1)
            return Jump(self.parse_target(a), link=(mnemonic == "jal"))

        if mnemonic in ("jmpr", "jalr"):
            (a,) = arity(1)
            return JumpIndirect(self.parse_register(a), link=(mnemonic == "jalr"))

        if mnemonic == "trap":
            (a,) = arity(1)
            code = parse_integer(a.lstrip("#"))
            if code is None or not 0 <= code < 4096:
                raise self.error(f"trap code must be 0..4095, got {a!r}")
            return Trap(code)

        if mnemonic == "rdspec":
            a, b = arity(2)
            name = a.strip().lower()
            if name not in _SPECIAL_REGS:
                raise self.error(f"unknown special register {a!r}")
            return ReadSpecial(_SPECIAL_REGS[name], self.parse_register(b))

        if mnemonic == "wrspec":
            a, b = arity(2)
            name = b.strip().lower()
            if name not in _SPECIAL_REGS:
                raise self.error(f"unknown special register {b!r}")
            return WriteSpecial(_SPECIAL_REGS[name], self.parse_operand(a))

        raise self.error(f"unknown mnemonic {mnemonic!r}")

    def parse_target(self, text: str) -> Union[int, str]:
        value = self.parse_value_or_symbol(text)
        return value

    def parse_statement(self, text: str):
        """Parse the body of a line (label already stripped)."""
        if text.startswith("{"):
            if not text.endswith("}"):
                raise self.error("unterminated packed word")
            inner = text[1:-1]
            halves = inner.split("|")
            if len(halves) != 2:
                raise self.error("a packed word is written { mem | alu }")
            mem = self.parse_piece(halves[0])
            alu = self.parse_piece(halves[1])
            return PackedStmt(mem, alu)

        if text.startswith("."):
            return self.parse_directive(text)

        return PieceStmt(self.parse_piece(text))

    def parse_directive(self, text: str):
        parts = text.split(None, 1)
        name = parts[0].lower()
        body = parts[1] if len(parts) > 1 else ""
        if name == ".org":
            value = parse_integer(body)
            if value is None or value < 0:
                raise self.error(f"bad .org address {body!r}")
            return Org(value)
        if name == ".word":
            values = [self.parse_value_or_symbol(item) for item in _split_operands(body)]
            if not values:
                raise self.error(".word needs at least one value")
            return WordData(values)
        if name == ".space":
            count = parse_integer(body)
            if count is None or count < 0:
                raise self.error(f"bad .space count {body!r}")
            return Space(count)
        if name == ".equ":
            items = _split_operands(body)
            if len(items) != 2 or not _SYMBOL_RE.match(items[0]):
                raise self.error(".equ needs a name and a value")
            value = parse_integer(items[1])
            if value is None:
                raise self.error(f"bad .equ value {items[1]!r}")
            return Equ(items[0], value)
        if name == ".ascii":
            body = body.strip()
            if len(body) < 2 or body[0] != '"' or body[-1] != '"':
                raise self.error('.ascii needs a "quoted" string')
            return Ascii(body[1:-1])
        raise self.error(f"unknown directive {name!r}")


# Symbolic placeholder pieces resolved by the assembler's second pass.


class _SymbolicLim(Piece):
    """``lim symbol, dst`` before symbol resolution."""

    def __init__(self, symbol: str, dst: Reg):
        self.symbol = symbol
        self.dst = dst

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        return f"lim {self.symbol},{self.dst!r}"


class _SymbolicMem(Piece):
    """A load/store whose address contains an unresolved symbol."""

    def __init__(self, is_store_op: bool, address_form: tuple, register: Reg):
        self.is_store_op = is_store_op
        self.address_form = address_form
        self.register = register

    @property
    def is_load(self):  # type: ignore[override]
        return not self.is_store_op

    @property
    def is_store(self):  # type: ignore[override]
        return self.is_store_op

    def __repr__(self) -> str:
        op = "st" if self.is_store_op else "ld"
        return f"{op} <{self.address_form}>,{self.register!r}"


def parse(source: str) -> List[SourceStatement]:
    """Parse assembly source into positioned statements."""
    statements: List[SourceStatement] = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        text = _strip_comment(raw)
        if not text:
            continue
        while True:
            match = _LABEL_RE.match(text)
            if not match:
                break
            statements.append(
                SourceStatement(Label(match.group(1)), line_number, raw)
            )
            text = match.group(2).strip()
            if not text:
                break
        if not text:
            continue
        parser = LineParser(line_number, raw)
        statements.append(SourceStatement(parser.parse_statement(text), line_number, raw))
    return statements
