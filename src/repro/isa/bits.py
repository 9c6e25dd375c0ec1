"""32-bit integer helpers.

The modeled machine is a 32-bit word machine.  Python integers are
unbounded, so every architectural value is normalized through these
helpers: :func:`u32` produces the unsigned (two's-complement) image of a
value and :func:`s32` its signed interpretation.
"""

from __future__ import annotations

WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF
SIGN_BIT = 0x80000000

#: Size of the virtual address space in *words* (the paper: "the virtual
#: address space of 16 million words").
VIRTUAL_SPACE_WORDS = 16 * 1024 * 1024

MIN_INT32 = -(2**31)
MAX_INT32 = 2**31 - 1


def u32(value: int) -> int:
    """Return the unsigned 32-bit image of ``value`` (two's complement)."""
    return value & WORD_MASK


def s32(value: int) -> int:
    """Return the signed interpretation of the low 32 bits of ``value``."""
    value &= WORD_MASK
    if value & SIGN_BIT:
        return value - (1 << WORD_BITS)
    return value


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` bits of ``value`` to a Python int."""
    if bits <= 0:
        raise ValueError("bit width must be positive")
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def fits_unsigned(value: int, bits: int) -> bool:
    """True when ``value`` is representable as an unsigned ``bits``-bit field."""
    return 0 <= value < (1 << bits)


def fits_signed(value: int, bits: int) -> bool:
    """True when ``value`` is representable as a signed ``bits``-bit field."""
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))
