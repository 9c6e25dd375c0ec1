"""ALU operations and the sixteen comparison codes.

The paper (section 2.3.1) specifies that MIPS implements conditional
control flow with a *compare-and-branch* instruction offering one of 16
comparisons covering both signed and unsigned arithmetic, and that the
same 16 comparisons are available in the *Set Conditionally* instruction.

The ALU operation set is the simple RISC repertoire plus the two byte
instructions of section 4.1 (insert byte / extract byte) and the *reverse*
subtract used to express small negative constants without sign-extension
hardware (section 2.2: "provide reverse operators that allow the constants
to be treated as negative").

The tables below are the definition of this arithmetic, written once:
:data:`ALU_EXPRESSIONS`, :data:`OVERFLOW_EXPRESSIONS` and
:data:`COMPARISONS` hold each operation as the text of one Python
expression over ``{a}`` and ``{b}``, the unsigned 32-bit images of the
two operands.  They are compiled from that text at import into
:data:`ALU_FUNCTIONS`, :data:`OVERFLOW_FUNCTIONS` and
:data:`COMPARE_FUNCTIONS`, which the reference stepper runs (its step
plans hold the entries a word needs) and which the evaluators
:func:`alu_evaluate`, :func:`alu_insert_byte`, :func:`alu_overflows` and
:func:`compare` wrap for the spec tests; the fast path
(:mod:`repro.sim.fastpath`) renders its handlers from the same entries.
The fast path compiles one handler per template, with a slot constant
per word-specific integer, so a literal in an entry only ever meets a
name: ``{a} * 2`` is allowed, ``2 * 8`` would fold two constants (and a
slot with them) into one.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Tuple


class AluOp(Enum):
    """Arithmetic/logic operations available in an ALU piece."""

    ADD = "add"
    SUB = "sub"          # dst = s1 - s2
    RSUB = "rsub"        # dst = s2 - s1 (reverse subtract)
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"          # shift left logical by s2 (mod 32)
    SRL = "srl"          # shift right logical
    SRA = "sra"          # shift right arithmetic
    MOV = "mov"          # dst = s1 (s2 ignored)
    NOT = "not"          # dst = ~s1 (s2 ignored)
    IC = "ic"            # insert byte: uses the LO byte selector
    XC = "xc"            # extract byte: selector in s1, word in s2
    MSTEP = "mstep"      # one Booth multiply step (see below)
    DSTEP = "dstep"      # one restoring-division step

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Opcodes allowed in the short ALU field of a *packed* instruction word.
#: The packed encoding only has a 4-bit opcode field (see
#: :mod:`repro.isa.encoding`), so the less frequent operations are
#: excluded and must occupy a full word.
PACKABLE_ALU_OPS = frozenset(
    {
        AluOp.ADD,
        AluOp.SUB,
        AluOp.RSUB,
        AluOp.AND,
        AluOp.OR,
        AluOp.XOR,
        AluOp.SLL,
        AluOp.SRL,
        AluOp.SRA,
        AluOp.MOV,
        AluOp.NOT,
    }
)

#: Each op's result (an unsigned 32-bit image).  ``IC`` inserts the low
#: byte of ``{a}`` into ``{w}``, the word already in its destination, at
#: the byte named by ``{b}``, the low 2 bits of LO (its s2 is unused);
#: ``XC`` extracts the byte of ``{b}`` that the low 2 bits of ``{a}``
#: name ("the low order two bits of a byte pointer", byte 0 least
#: significant).  ``MSTEP`` and ``DSTEP`` are one step of a
#: shift-and-add multiply and of a restoring division (the chip has no
#: multi-cycle multiplier).  ``_sh :=`` names a temporary.
ALU_EXPRESSIONS: Dict[AluOp, str] = {
    AluOp.ADD: "({a} + {b}) & 4294967295",
    AluOp.SUB: "({a} - {b}) & 4294967295",
    AluOp.RSUB: "({b} - {a}) & 4294967295",
    AluOp.AND: "{a} & {b}",
    AluOp.OR: "{a} | {b}",
    AluOp.XOR: "{a} ^ {b}",
    AluOp.SLL: "({a} << ({b} & 31)) & 4294967295",
    AluOp.SRL: "{a} >> ({b} & 31)",
    AluOp.SRA: (
        "(({a} - 4294967296) >> ({b} & 31)) & 4294967295"
        " if {a} & 2147483648 else {a} >> ({b} & 31)"
    ),
    AluOp.MOV: "{a}",
    AluOp.NOT: "{a} ^ 4294967295",
    AluOp.IC: "({w} & ~(255 << (_sh := ({b} & 3) * 8))) | (({a} & 255) << _sh)",
    AluOp.XC: "({b} >> (({a} & 3) * 8)) & 255",
    AluOp.MSTEP: "({a} * 2 + {b}) & 4294967295",
    AluOp.DSTEP: (
        "(_sh - {b}) | 1 if (_sh := ({a} << 1) & 4294967295) >= {b}"
        " else _sh & 4294967294"
    ),
}

#: The ops that detect signed overflow, each with its predicate: nonzero
#: exactly when the signed result leaves 32 bits.  The machine traps
#: (when enabled in the surprise register) rather than setting a
#: condition code (paper section 2.3.3).
OVERFLOW_EXPRESSIONS: Dict[AluOp, str] = {
    AluOp.ADD: "({a} ^ {b} ^ 2147483648) & ({a} ^ ({a} + {b})) & 2147483648",
    AluOp.SUB: "({a} ^ {b}) & ({a} ^ ({a} - {b})) & 2147483648",
    AluOp.RSUB: "({a} ^ {b}) & ({b} ^ ({b} - {a})) & 2147483648",
}


def _compile(params: str, expr: str) -> Callable[..., object]:
    """``lambda params: expr`` -- one table entry as a function."""
    return eval(f"lambda {params}: {expr}")


#: the compiled :data:`ALU_EXPRESSIONS`: ``f(a, b)`` on u32 images
#: (``IC``: ``f(a, b, w)``)
ALU_FUNCTIONS: Dict[AluOp, Callable[..., int]] = {
    op: _compile("a, b, w" if "{w}" in expr else "a, b", expr.format(a="a", b="b", w="w"))
    for op, expr in ALU_EXPRESSIONS.items()
}
#: the compiled :data:`OVERFLOW_EXPRESSIONS`: ``f(a, b)`` on u32 images
OVERFLOW_FUNCTIONS: Dict[AluOp, Callable[[int, int], bool]] = {
    op: _compile("a, b", f"({expr.format(a='a', b='b')}) != 0")
    for op, expr in OVERFLOW_EXPRESSIONS.items()
}


def alu_evaluate(op: AluOp, s1: int, s2: int) -> int:
    """Evaluate a two-source ALU operation; returns the unsigned image.

    ``IC`` (insert byte) is three-source (selector, source byte, target
    word) and must be evaluated with :func:`alu_insert_byte` instead.
    """
    if op is AluOp.IC:
        raise ValueError("insert byte needs the LO selector; use alu_insert_byte")
    return ALU_FUNCTIONS[op](s1 & 4294967295, s2 & 4294967295)


def alu_insert_byte(lo_selector: int, source: int, word: int) -> int:
    """Evaluate the insert-byte instruction (``ic lo,src,dst``)."""
    return ALU_FUNCTIONS[AluOp.IC](
        source & 4294967295, lo_selector & 4294967295, word & 4294967295
    )


def alu_overflows(op: AluOp, s1: int, s2: int) -> bool:
    """True when the signed result of ``op`` overflows 32 bits.

    Only ``ADD``, ``SUB`` and ``RSUB`` participate in overflow detection
    (:data:`OVERFLOW_EXPRESSIONS`).
    """
    overflows = OVERFLOW_FUNCTIONS.get(op)
    return overflows is not None and overflows(s1 & 4294967295, s2 & 4294967295)


class Comparison(Enum):
    """The sixteen comparison codes of compare-and-branch / set-conditionally.

    Signed (``LT``..``GE``), unsigned (``LO``..``HS``), equality, the two
    constant outcomes, and two bit-test codes.  The set is closed under
    operand exchange (``LT`` <-> ``GT`` etc.), which is what lets the
    compiler use *reverse comparisons* to treat an unsigned 4-bit literal
    as a negative operand (section 2.2).
    """

    EQ = "eq"    # s1 == s2
    NE = "ne"    # s1 != s2
    LT = "lt"    # signed s1 <  s2
    LE = "le"    # signed s1 <= s2
    GT = "gt"    # signed s1 >  s2
    GE = "ge"    # signed s1 >= s2
    LO = "lo"    # unsigned s1 <  s2
    LS = "ls"    # unsigned s1 <= s2
    HI = "hi"    # unsigned s1 >  s2
    HS = "hs"    # unsigned s1 >= s2
    T = "t"      # always
    F = "f"      # never
    BC = "bc"    # bits clear: s1 & s2 == 0
    BS = "bs"    # bits set:   s1 & s2 != 0
    NBC = "nbc"  # not all bits clear under mask complement: s1 & ~s2 == 0
    NBS = "nbs"  # some bit set outside mask: s1 & ~s2 != 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Each comparison as ``(expression, xa, xb)``: the expression is applied
#: to ``{a} = s1 ^ xa`` and ``{b} = s2 ^ xb``.  XOR with 2147483648
#: biases a signed operand into unsigned order (s32(a) < s32(b) exactly
#: when (a ^ 2**31) < (b ^ 2**31)); XOR with 4294967295 complements the
#: ``NBC``/``NBS`` mask.
COMPARISONS: Dict[Comparison, Tuple[str, int, int]] = {
    Comparison.EQ: ("{a} == {b}", 0, 0),
    Comparison.NE: ("{a} != {b}", 0, 0),
    Comparison.LT: ("{a} < {b}", 2147483648, 2147483648),
    Comparison.LE: ("{a} <= {b}", 2147483648, 2147483648),
    Comparison.GT: ("{a} > {b}", 2147483648, 2147483648),
    Comparison.GE: ("{a} >= {b}", 2147483648, 2147483648),
    Comparison.LO: ("{a} < {b}", 0, 0),
    Comparison.LS: ("{a} <= {b}", 0, 0),
    Comparison.HI: ("{a} > {b}", 0, 0),
    Comparison.HS: ("{a} >= {b}", 0, 0),
    Comparison.T: ("True", 0, 0),
    Comparison.F: ("False", 0, 0),
    Comparison.BC: ("({a} & {b}) == 0", 0, 0),
    Comparison.BS: ("({a} & {b}) != 0", 0, 0),
    Comparison.NBC: ("({a} & {b}) == 0", 0, 4294967295),
    Comparison.NBS: ("({a} & {b}) != 0", 0, 4294967295),
}


def _transformed(name: str, xor: int) -> str:
    return f"({name} ^ {xor})" if xor else name


#: the compiled :data:`COMPARISONS`: ``f(s1, s2)`` on u32 images
COMPARE_FUNCTIONS: Dict[Comparison, Callable[[int, int], bool]] = {
    cond: _compile("a, b", expr.format(a=_transformed("a", xa), b=_transformed("b", xb)))
    for cond, (expr, xa, xb) in COMPARISONS.items()
}

#: comparison obtained by exchanging the two operands
SWAPPED_COMPARISON = {
    Comparison.EQ: Comparison.EQ,
    Comparison.NE: Comparison.NE,
    Comparison.LT: Comparison.GT,
    Comparison.LE: Comparison.GE,
    Comparison.GT: Comparison.LT,
    Comparison.GE: Comparison.LE,
    Comparison.LO: Comparison.HI,
    Comparison.LS: Comparison.HS,
    Comparison.HI: Comparison.LO,
    Comparison.HS: Comparison.LS,
    Comparison.T: Comparison.T,
    Comparison.F: Comparison.F,
    Comparison.BC: Comparison.BC,
    Comparison.BS: Comparison.BS,
}

#: comparison whose outcome is the logical negation
NEGATED_COMPARISON = {
    Comparison.EQ: Comparison.NE,
    Comparison.NE: Comparison.EQ,
    Comparison.LT: Comparison.GE,
    Comparison.LE: Comparison.GT,
    Comparison.GT: Comparison.LE,
    Comparison.GE: Comparison.LT,
    Comparison.LO: Comparison.HS,
    Comparison.LS: Comparison.HI,
    Comparison.HI: Comparison.LS,
    Comparison.HS: Comparison.LO,
    Comparison.T: Comparison.F,
    Comparison.F: Comparison.T,
    Comparison.BC: Comparison.BS,
    Comparison.BS: Comparison.BC,
    Comparison.NBC: Comparison.NBS,
    Comparison.NBS: Comparison.NBC,
}


def compare(cond: Comparison, s1: int, s2: int) -> bool:
    """Evaluate comparison ``cond`` on the two 32-bit operands."""
    return COMPARE_FUNCTIONS[cond](s1 & 4294967295, s2 & 4294967295)


assert len(Comparison) == 16, "the paper specifies exactly 16 comparisons"
