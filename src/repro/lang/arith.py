"""The source language's integer operators, on 32-bit registers.

``+ - * div mod`` as compiled code computes them: on the 32-bit images
of both operands, wrapping to 32 bits, with ``div`` truncating toward
zero and ``mod`` taking the dividend's sign.  The MIPS compiler's
constant folder and the CC machine's ALU both call :data:`OPERATORS`,
so a folded constant is the value run time would have computed.  A
divisor whose image is 0 raises :class:`ZeroDivisionError`, where
compiled code traps.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..isa.bits import s32


def _truncated(a: int, b: int) -> int:
    """``a / b`` rounded toward zero, for signed ``a`` and ``b``."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _div(a: int, b: int) -> int:
    return s32(_truncated(s32(a), s32(b)))


def _mod(a: int, b: int) -> int:
    a, b = s32(a), s32(b)
    return s32(a - _truncated(a, b) * b)


#: operator -> ``f(left, right)``: the signed 32-bit result
OPERATORS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: s32(a + b),
    "-": lambda a, b: s32(a - b),
    "*": lambda a, b: s32(a * b),
    "div": _div,
    "mod": _mod,
}
