"""32-bit instruction words and the piece-packing rules.

A word holds either a single piece or a *packed* pair (one short memory
piece + one short ALU piece).  The packed encoding (see
:mod:`repro.isa.encoding`) constrains what fits:

- the memory piece must use the ``disp(base)`` addressing mode with a
  displacement in 0..7;
- the ALU piece must use an opcode from the packable subset and its
  second source must be a register (the packed word has no room for a
  second immediate field);
- a ``MovImm`` may ride in the ALU slot (its 8-bit constant fits);
- the two pieces must not write the same register (one write port per
  destination field).

Semantics of a packed word: both pieces read the register file as it was
*before* the word executed, then both write.  This is what lets a packed
``ld 0(sp) / add #1,sp,sp`` behave "much like an auto increment
addressing mode" (paper section 3.3).  For restartability, the paper
requires that a memory-referencing word commits **no** register writes
until the memory reference itself has committed; the simulator's fault
machinery honors this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .operations import PACKABLE_ALU_OPS, AluOp
from .pieces import (
    Alu,
    Displacement,
    Imm,
    Load,
    MovImm,
    Noop,
    Piece,
    SetCond,
    Store,
)
from .registers import Reg

#: packed memory displacements must fit in the 3-bit short field
PACKED_DISP_LIMIT = 8


class PackingError(ValueError):
    """Raised when two pieces cannot share an instruction word."""


#: shift opcodes: the packed word's wide (immediate-capable) field holds
#: the shift amount and the narrow field the shifted register
_SHIFT_OPS = frozenset({AluOp.SLL, AluOp.SRL, AluOp.SRA})
#: commutative opcodes: an immediate in s2 can swap into s1
_COMMUTATIVE = frozenset({AluOp.ADD, AluOp.AND, AluOp.OR, AluOp.XOR})


def canonical_alu(piece: Alu) -> Alu:
    """The immediate-in-the-wide-field form of an ALU piece.

    The packed encoding's second source field is register-only, so an
    immediate operand must ride in the first field: commutative
    operations swap operands, and a subtract-immediate becomes the
    paper's *reverse subtract* with the operands exchanged
    (``sub r,#k`` == ``rsub #k,r``).  Semantically identical.
    """
    if not isinstance(piece.s2, Imm):
        return piece
    if piece.op in _COMMUTATIVE:
        return Alu(piece.op, piece.s2, piece.s1, piece.dst)
    if piece.op is AluOp.SUB:
        return Alu(AluOp.RSUB, piece.s2, piece.s1, piece.dst)
    if piece.op is AluOp.RSUB:
        return Alu(AluOp.SUB, piece.s2, piece.s1, piece.dst)
    return piece


def packable_form(alu: Piece) -> Optional[Piece]:
    """An equivalent piece eligible for the packed ALU slot, or None."""
    if isinstance(alu, MovImm):
        return alu
    if not isinstance(alu, Alu):
        return None
    if alu.op not in PACKABLE_ALU_OPS:
        return None
    if alu.op in (AluOp.MOV, AluOp.NOT):
        return alu
    if alu.op in _SHIFT_OPS:
        # wide field holds the amount; the shifted value needs a register
        return alu if isinstance(alu.s1, Reg) else None
    candidate = canonical_alu(alu)
    if candidate.op not in PACKABLE_ALU_OPS:
        return None
    if isinstance(candidate.s2, Imm):
        return None
    return candidate


def packing_obstacle(mem: Piece, alu: Piece) -> Optional[str]:
    """Why ``mem`` and ``alu`` cannot pack into one word (None if they can).

    This is the *structural* check (field widths, port conflicts).  The
    reorganizer separately guarantees *semantic* independence -- packed
    pieces execute in parallel, so neither may depend on the other's
    result.
    """
    if not isinstance(mem, (Load, Store)):
        return f"memory slot cannot hold {type(mem).__name__}"
    if not isinstance(mem.addr, Displacement):
        return "packed memory piece must use disp(base) addressing"
    if not 0 <= mem.addr.disp < PACKED_DISP_LIMIT:
        return f"packed displacement must be 0..{PACKED_DISP_LIMIT - 1}"

    if isinstance(alu, Alu):
        if alu.op not in PACKABLE_ALU_OPS:
            return f"opcode {alu.op.value} not in the packed subset"
        if alu.op in _SHIFT_OPS:
            if not isinstance(alu.s1, Reg):
                return "packed shift needs a register source"
        elif alu.op not in (AluOp.MOV, AluOp.NOT) and isinstance(alu.s2, Imm):
            return "packed ALU second source must be a register"
    elif isinstance(alu, MovImm):
        pass  # 8-bit constant + dst fits the short ALU field
    else:
        return f"ALU slot cannot hold {type(alu).__name__}"

    if mem.writes() & alu.writes():
        return "both pieces write the same register"
    return None


def can_pack(mem: Piece, alu: Piece) -> bool:
    """True when the two pieces fit together in one instruction word."""
    return packing_obstacle(mem, alu) is None


@dataclass(frozen=True)
class InstructionWord:
    """One 32-bit instruction word: a single piece or a packed pair."""

    mem: Optional[Piece] = None
    alu: Optional[Piece] = None

    def __post_init__(self) -> None:
        if self.mem is None and self.alu is None:
            raise PackingError("an instruction word must hold at least a nop")
        if self.mem is not None and self.alu is not None:
            obstacle = packing_obstacle(self.mem, self.alu)
            if obstacle is not None:
                raise PackingError(obstacle)

    # -- constructors -----------------------------------------------------

    @classmethod
    def single(cls, piece: Piece) -> "InstructionWord":
        """Wrap one piece in its own word."""
        if piece.is_memory:
            return cls(mem=piece, alu=None)
        return cls(mem=None, alu=piece)

    @classmethod
    def packed(cls, mem: Piece, alu: Piece) -> "InstructionWord":
        """Pack a memory piece and an ALU piece into one word."""
        return cls(mem=mem, alu=alu)

    @classmethod
    def nop(cls) -> "InstructionWord":
        """The no-op word: one shared instance, as words are immutable."""
        return _NOP

    # -- structure ---------------------------------------------------------

    @property
    def is_packed(self) -> bool:
        return self.mem is not None and self.alu is not None

    @property
    def pieces(self) -> Tuple[Piece, ...]:
        """The pieces in the word, memory piece first."""
        mem, alu = self.mem, self.alu
        if mem is None:
            return (alu,)
        return (mem,) if alu is None else (mem, alu)

    @property
    def flow(self) -> Optional[Piece]:
        """The flow-control piece held by this word, if any."""
        for piece in self.pieces:
            if piece.is_flow:
                return piece
        return None

    @property
    def is_nop(self) -> bool:
        mem, alu = self.mem, self.alu
        if mem is None:
            return isinstance(alu, Noop)
        return alu is None and isinstance(mem, Noop)

    @property
    def uses_memory(self) -> bool:
        """True when the word consumes a data-memory cycle.

        The complement of this over a program run is the paper's *free
        memory cycles* (section 3.1): word slots whose memory cycle can
        be exported for DMA, I/O, or cache write-backs.
        """
        return self.mem is not None

    def reads(self) -> int:
        """The register set the word's pieces read."""
        out = 0
        for piece in self.pieces:
            out |= piece.reads()
        return out

    def writes(self) -> int:
        """The register set the word's pieces write."""
        out = 0
        for piece in self.pieces:
            out |= piece.writes()
        return out

    def __repr__(self) -> str:
        if self.is_packed:
            return f"[{self.mem!r} | {self.alu!r}]"
        return repr(self.pieces[0])


_NOP = InstructionWord.single(Noop())


def words_from_pieces(pieces: Iterable[Piece]) -> List[InstructionWord]:
    """One word per piece, in order, with no packing.

    This is the "None" optimization level of Table 11 before no-op
    insertion: the naive translation of a piece stream.
    """
    return [InstructionWord.single(piece) for piece in pieces]
