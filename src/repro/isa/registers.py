"""Register model for the MIPS machine.

The machine has sixteen 32-bit general registers ``r0`` .. ``r15``.  All
sixteen are general: unlike later MIPS designs there is no hardwired zero
register, because any operand slot may hold a 4-bit literal constant
instead of a register (paper section 2.2).

Software conventions (used by the compiler and the mini operating system,
not enforced by hardware):

========  =====  =======================================
alias     reg    role
========  =====  =======================================
``rv``    r1     function return value
``sp``    r14    stack pointer
``ap``    r13    argument pointer
``fp``    r12    frame pointer
``ra``    r15    return address (written by ``jal``)
========  =====  =======================================

Beyond the general file the architecture defines a handful of *special*
registers reachable only by dedicated instructions: the byte-selector
register ``lo`` used by insert-byte, the *surprise register* (the
machine's entire miscellaneous state -- see :mod:`repro.system.surprise`),
and the on-chip segmentation registers.

Register sets -- the registers a piece reads or writes, the registers
live into a block -- are bit masks (plain ints): ``rn`` takes bit n, and
the k-th :class:`SpecialReg`, in declaration order, takes bit
``NUM_REGISTERS + k``.  :attr:`Reg.mask` and :attr:`SpecialReg.mask` give
one register's bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

NUM_REGISTERS = 16

#: software-convention aliases accepted by the assembler
REGISTER_ALIASES = {
    "rv": 1,
    "fp": 12,
    "ap": 13,
    "sp": 14,
    "ra": 15,
}

#: canonical alias for each conventional register number (for disassembly)
ALIAS_BY_NUMBER = {number: alias for alias, number in REGISTER_ALIASES.items()}


@dataclass(frozen=True, order=True)
class Reg:
    """A general register operand, ``r0`` through ``r15``."""

    number: int

    def __post_init__(self) -> None:
        if not 0 <= self.number < NUM_REGISTERS:
            raise ValueError(f"register number out of range: {self.number}")

    def __repr__(self) -> str:
        return f"r{self.number}"

    @property
    def name(self) -> str:
        """Assembly name, preferring the conventional alias if any."""
        return ALIAS_BY_NUMBER.get(self.number, f"r{self.number}")

    @property
    def mask(self) -> int:
        """This register's bit in a register set."""
        return 1 << self.number


class SpecialReg(Enum):
    """Special registers outside the general file.

    ``LO`` is the byte-selector register consumed by the insert-byte
    instruction (paper section 4.1: "for insert the byte pointer must be
    moved to a special register").  ``SURPRISE`` is the processor status
    word equivalent (section 3.2).  ``SEG_MASK`` and ``SEG_PID`` are the
    on-chip segmentation registers (section 3.1).
    """

    LO = "lo"
    SURPRISE = "surprise"
    SEG_MASK = "segmask"
    SEG_PID = "segpid"
    # The three exception return addresses latched by the surprise
    # sequence (section 3.3: "Three return addresses are saved in order
    # to allow returns to sequences that include indirect jumps").
    XRA0 = "xra0"
    XRA1 = "xra1"
    XRA2 = "xra2"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def mask(self) -> int:
        """This register's bit in a register set, above the general file."""
        return _SPECIAL_MASKS[self]


_SPECIAL_MASKS = {sreg: 1 << (NUM_REGISTERS + k) for k, sreg in enumerate(SpecialReg)}


def reg(number_or_name) -> Reg:
    """Build a :class:`Reg` from a number, an ``rN`` string, or an alias."""
    if isinstance(number_or_name, Reg):
        return number_or_name
    if isinstance(number_or_name, int):
        return Reg(number_or_name)
    name = number_or_name.strip().lower()
    if name in REGISTER_ALIASES:
        return Reg(REGISTER_ALIASES[name])
    if name.startswith("r") and name[1:].isdigit():
        return Reg(int(name[1:]))
    raise ValueError(f"not a register: {number_or_name!r}")


# Conventional registers, importable by name.
RV = Reg(1)
FP = Reg(12)
AP = Reg(13)
SP = Reg(14)
RA = Reg(15)

#: the set of every special register, and of every register
SPECIAL_REGISTERS = sum(sreg.mask for sreg in SpecialReg)
ALL_REGISTERS = ((1 << NUM_REGISTERS) - 1) | SPECIAL_REGISTERS
