"""Cycle-cost model for the byte-versus-word addressing study (Table 9).

The paper prices each operation in clock cycles: "We assume that the
cost of an instruction is equal to the number of clock cycles needed to
execute that instruction (or instruction piece)."  A load or store is 4
cycles on word-addressed MIPS.  A *byte-addressed* MIPS would pay a
15-20% operand-path overhead on **every** memory operation (section 4.1),
while word-addressed MIPS pays extra explicit instructions only on byte
accesses (extract/insert sequences, section 4.1's code fragments).

:func:`byte_operation_costs` reproduces Table 9 exactly and is reused by
Table 10 (frequencies x costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

#: base cost, in cycles, of one memory reference instruction
MEMORY_REFERENCE_CYCLES = 4
#: cost of one ALU instruction piece
ALU_CYCLES = 1
#: the paper's low estimate of the byte-addressing operand-path overhead
BYTE_ADDRESSING_OVERHEAD_LOW = 0.15
#: the paper's high estimate
BYTE_ADDRESSING_OVERHEAD_HIGH = 0.20


class MemOperation(Enum):
    """The six rows of Table 9."""

    LOAD_FROM_ARRAY = "load from array"
    STORE_INTO_ARRAY = "store into array"
    LOAD_BYTE = "load byte"
    STORE_BYTE = "store byte"
    LOAD_WORD = "load word"
    STORE_WORD = "store word"


@dataclass(frozen=True)
class CostRange:
    """An inclusive cost interval in cycles (degenerate when lo == hi)."""

    lo: float
    hi: float

    @classmethod
    def point(cls, value: float) -> "CostRange":
        return cls(value, value)

    def scaled(self, factor: float) -> "CostRange":
        return CostRange(self.lo * factor, self.hi * factor)

    def __add__(self, other: "CostRange") -> "CostRange":
        return CostRange(self.lo + other.lo, self.hi + other.hi)

    def __repr__(self) -> str:
        if self.lo == self.hi:
            return f"{self.lo:g}"
        return f"{self.lo:g}-{self.hi:g}"


def byte_machine_costs(overhead: float = 0.0) -> Dict[MemOperation, CostRange]:
    """Costs on a byte-addressed MIPS with the given operand-path overhead.

    With ``overhead == 0`` this is Table 9's "Cost with byte operations"
    column; with 0.15 it is the "Cost with overhead" column.  On the
    byte-addressed machine every operation is a single memory reference
    (array accesses included), but *all* references pay the overhead.
    """
    base = MEMORY_REFERENCE_CYCLES * (1 + overhead)
    load_byte = (MEMORY_REFERENCE_CYCLES + 2) * (1 + overhead)
    return {
        MemOperation.LOAD_FROM_ARRAY: CostRange.point(base),
        MemOperation.STORE_INTO_ARRAY: CostRange.point(base),
        # byte loads/stores through a byte *pointer* still need the
        # pointer arithmetic the paper charges at 6 cycles base
        MemOperation.LOAD_BYTE: CostRange.point(load_byte),
        MemOperation.STORE_BYTE: CostRange.point(load_byte),
        MemOperation.LOAD_WORD: CostRange.point(base),
        MemOperation.STORE_WORD: CostRange.point(base),
    }


def word_machine_costs() -> Dict[MemOperation, CostRange]:
    """Costs on word-addressed MIPS using the byte insert/extract support.

    Table 9's "Cost with MIPS operations" column:

    - load from a (packed byte) array: load base-shifted + extract
      = 4 + 2 -> 6 cycles;
    - store into a packed array: optional fetch of the target word (often
      already in a register), move to the byte selector, insert, store:
      8-12 cycles;
    - byte load through a byte pointer: 4 (load) + 2 x ALU... the paper
      charges 8; byte store: 10-18;
    - plain word load/store: 4, with no addressing overhead.
    """
    return {
        MemOperation.LOAD_FROM_ARRAY: CostRange.point(6),
        MemOperation.STORE_INTO_ARRAY: CostRange(8, 12),
        MemOperation.LOAD_BYTE: CostRange.point(8),
        MemOperation.STORE_BYTE: CostRange(10, 18),
        MemOperation.LOAD_WORD: CostRange.point(4),
        MemOperation.STORE_WORD: CostRange.point(4),
    }


def table9(overhead: float = BYTE_ADDRESSING_OVERHEAD_LOW) -> Dict[MemOperation, Tuple[CostRange, CostRange, CostRange]]:
    """The three cost columns of Table 9 for each operation row."""
    plain = byte_machine_costs(0.0)
    with_overhead = byte_machine_costs(overhead)
    mips = word_machine_costs()
    return {op: (plain[op], with_overhead[op], mips[op]) for op in MemOperation}
