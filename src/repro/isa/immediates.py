"""Constant handling: immediate fitting and the Table 1 classification.

The architecture offers three escalating ways to materialize a constant
(paper section 2.2):

1. a **4-bit operand constant** 0-15 directly in a register slot of any
   operation -- covering ~70% of constants (Table 1);
2. the **8-bit move-immediate** into any register -- all but ~5%;
3. the **long-immediate load** (a full instruction word).

Small *negative* constants are expressed with **reverse operators**
rather than sign extension: ``x - (-3)`` is not needed -- instead
``x + 3`` uses ``add``, and ``(-3) + x``/``x + (-3)`` rewrite to
``rsub #3`` or ``sub #3``; comparisons against small negatives swap to
the reversed comparison.  "MIPS uses the latter approach because it
allows more constants to be expressed and eliminates the need for sign
extension in the constant insertion hardware."
"""

from __future__ import annotations

from enum import Enum
from typing import List

from .operations import AluOp
from .pieces import Alu, Imm, LoadImm, MovImm, Piece, Reg


class ConstantClass(Enum):
    """Magnitude buckets of Table 1 ("Constant distribution in programs")."""

    ZERO = "0"
    ONE = "1"
    TWO = "2"
    SMALL = "3 - 15"        # fits the 4-bit operand constant
    BYTE = "16 - 255"       # fits the 8-bit move immediate
    LARGE = "> 255"         # needs a long immediate

    @property
    def order(self) -> int:
        return list(ConstantClass).index(self)


#: Table 1 row order
TABLE1_ROWS = list(ConstantClass)


def classify_constant(value: int) -> ConstantClass:
    """Bucket a constant by magnitude, exactly as Table 1 does."""
    magnitude = abs(value)
    if magnitude == 0:
        return ConstantClass.ZERO
    if magnitude == 1:
        return ConstantClass.ONE
    if magnitude == 2:
        return ConstantClass.TWO
    if magnitude <= 15:
        return ConstantClass.SMALL
    if magnitude <= 255:
        return ConstantClass.BYTE
    return ConstantClass.LARGE


def fits_imm4(value: int) -> bool:
    """True when the constant can ride in a 4-bit operand slot."""
    return 0 <= value <= 15

def fits_imm4_reversed(value: int) -> bool:
    """True when ``-value`` fits a 4-bit slot (usable via a reverse op)."""
    return 0 <= -value <= 15


def fits_movi(value: int) -> bool:
    """True when the constant fits the 8-bit move-immediate."""
    return 0 <= value <= 255


def materialize(value: int, dst: Reg) -> List[Piece]:
    """Instruction pieces that place ``value`` into register ``dst``.

    Selection order: 4-bit constant moved (1 short op), 8-bit move
    immediate, long immediate, and finally a two-word
    ``lim``/``sll``/``or`` synthesis for values beyond the 21-bit long
    immediate.
    """
    if fits_imm4(value):
        return [Alu(AluOp.MOV, Imm(value), Imm(0), dst)]
    if fits_imm4_reversed(value):
        # dst = s2 - s1 = 0 - |value| = value, via the reverse subtract
        return [Alu(AluOp.RSUB, Imm(-value), Imm(0), dst)]
    if fits_movi(value):
        return [MovImm(value, dst)]
    if -LoadImm.LIMIT <= value < LoadImm.LIMIT:
        return [LoadImm(value, dst)]
    raise ValueError(
        f"{value} exceeds the long-immediate range; use synthesize_large "
        "with a scratch register"
    )


def synthesize_large(value: int, dst: Reg, scratch: Reg) -> List[Piece]:
    """Materialize an arbitrary 32-bit constant using a scratch register."""
    low = value & 0xFFFF
    high = (value >> 16) & 0xFFFF
    return [
        LoadImm(high, dst),
        Alu(AluOp.SLL, dst, Imm(8), dst),
        Alu(AluOp.SLL, dst, Imm(8), dst),
        LoadImm(low, scratch),
        Alu(AluOp.OR, dst, scratch, dst),
    ]
