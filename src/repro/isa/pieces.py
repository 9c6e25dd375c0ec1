"""Instruction *pieces* -- the unit of work in the MIPS instruction set.

The paper's machine allocates resources (ALU, register ports, the memory
interface) to *pieces*; a 32-bit instruction word holds either one full
piece or a packed pair of one short memory piece and one short ALU piece
(section 3.3: "An instruction can consist of a load or store piece and an
ALU piece; the combined instruction can behave much like an auto
increment or decrement addressing mode").

The compiler's code generator emits a stream of pieces; the postpass
reorganizer (:mod:`repro.reorg`) schedules them and packs compatible
pieces into :class:`repro.isa.words.InstructionWord` objects.

Every piece reports the registers it reads and writes, each as one
register set (a bit mask, laid out in :mod:`repro.isa.registers`) -- the
one fact per piece that the reorganizer's dependence DAG, liveness and
delay-slot filler, and both simulator engines' load-delay checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .operations import AluOp, Comparison
from .registers import RA, Reg, SpecialReg


@dataclass(frozen=True)
class Imm:
    """A short literal operand occupying a register slot (4 bits, 0-15).

    The paper, section 2.2: "every operation can optionally contain a
    four-bit constant in the range 0-15 in place of a register field."
    """

    value: int

    #: the register set an operand reads: an immediate reads none
    mask = 0

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 15:
            raise ValueError(f"short immediate out of range 0..15: {self.value}")

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]

#: A branch/jump target: a symbolic label before assembly, a word address after.
Target = Union[str, int]


class Piece:
    """Base class for all instruction pieces."""

    #: pieces that reference data memory
    is_load = False
    is_store = False
    #: pieces that change control flow
    is_flow = False
    #: number of delay slots that follow (flow pieces only)
    delay_slots = 0
    #: requires supervisor privilege
    privileged = False

    def reads(self) -> int:
        """The register set (general and special) this piece reads."""
        return 0

    def writes(self) -> int:
        """The register set (general and special) this piece writes."""
        return 0

    @property
    def is_memory(self) -> bool:
        """True for pieces that use the data-memory interface."""
        return self.is_load or self.is_store


@dataclass(frozen=True)
class Noop(Piece):
    """An explicit no-operation word.

    The machine has no interlock hardware; when the reorganizer cannot
    fill a delay, it inserts one of these (section 4.2.1).
    """

    def __repr__(self) -> str:
        return "nop"


@dataclass(frozen=True)
class Alu(Piece):
    """A three-operand ALU piece: ``dst = s1 OP s2``.

    ``MOV`` and ``NOT`` ignore ``s2``.  ``IC`` (insert byte) additionally
    reads the ``LO`` byte-selector special register.  ``RSUB`` computes
    ``s2 - s1`` so that a short literal can act as a negated left operand.
    """

    op: AluOp
    s1: Operand
    s2: Operand
    dst: Reg

    def reads(self) -> int:
        if self.op in (AluOp.MOV, AluOp.NOT):
            return self.s1.mask
        if self.op is AluOp.IC:
            # insert byte rewrites the byte of dst that LO selects: the
            # old value is an input
            return self.s1.mask | self.s2.mask | self.dst.mask | SpecialReg.LO.mask
        return self.s1.mask | self.s2.mask

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        if self.op in (AluOp.MOV, AluOp.NOT):
            return f"{self.op.value} {self.s1!r},{self.dst!r}"
        return f"{self.op.value} {self.s1!r},{self.s2!r},{self.dst!r}"


@dataclass(frozen=True)
class MovImm(Piece):
    """Move-immediate: load an 8-bit constant 0-255 into any register.

    Section 2.2: "a move immediate instruction will load an 8-bit
    constant into any register"; together with the 4-bit operand
    constants this covers all but ~5% of constants (Table 1).
    """

    value: int
    dst: Reg

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255:
            raise ValueError(f"movi constant out of range 0..255: {self.value}")

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        return f"movi #{self.value},{self.dst!r}"


@dataclass(frozen=True)
class LoadImm(Piece):
    """Long-immediate load: a signed 21-bit constant into a register.

    This is the "long immediate" form of the five load types listed in
    section 2.2.  Constants outside +-2^20 are synthesized by the
    assembler/compiler from ``lim``/``sll``/``or`` sequences.
    """

    value: int
    dst: Reg

    LIMIT = 1 << 20

    def __post_init__(self) -> None:
        if not -self.LIMIT <= self.value < self.LIMIT:
            raise ValueError(f"long immediate out of range: {self.value}")

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        return f"lim #{self.value},{self.dst!r}"


@dataclass(frozen=True)
class LoadLabel(Piece):
    """Symbolic long-immediate: the address of a code label into a register.

    This is how the compiler takes the address of a routine entry (the
    MiniJava front end fills vtables with method addresses) before the
    layout is known.  The reorganizer resolves it to a plain
    :class:`LoadImm` once label addresses are assigned; it never
    survives into an encoded program image.
    """

    label: str
    dst: Reg

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        return f"lim {self.label},{self.dst!r}"


# --------------------------------------------------------------------------
# addressing modes (the five load/store types of section 2.2)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Absolute:
    """Absolute word address (21-bit field)."""

    addr: int

    def __post_init__(self) -> None:
        if not 0 <= self.addr < (1 << 21):
            raise ValueError(f"absolute address out of range: {self.addr}")

    def reads(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"@{self.addr}"


@dataclass(frozen=True)
class Displacement:
    """``disp(base)``: word address ``base + disp`` (signed 17-bit disp)."""

    base: Reg
    disp: int = 0

    LIMIT = 1 << 16

    def __post_init__(self) -> None:
        if not -self.LIMIT <= self.disp < self.LIMIT:
            raise ValueError(f"displacement out of range: {self.disp}")

    def reads(self) -> int:
        return self.base.mask

    def __repr__(self) -> str:
        return f"{self.disp}({self.base!r})"


@dataclass(frozen=True)
class BaseIndex:
    """``(base+index)``: word address is the sum of two registers."""

    base: Reg
    index: Reg

    def reads(self) -> int:
        return self.base.mask | self.index.mask

    def __repr__(self) -> str:
        return f"({self.base!r}+{self.index!r})"


@dataclass(frozen=True)
class BaseShifted:
    """``(base>>n)``: the base register shifted right by n, 0 < n <= 4.

    Used for accessing packed arrays of 2**n-bit objects: a *byte
    pointer* shifted right by 2 yields the word address holding the byte
    (section 4.1: ``ld (r0>>2),r1``).
    """

    base: Reg
    shift: int

    def __post_init__(self) -> None:
        if not 1 <= self.shift <= 4:
            raise ValueError(f"base shift out of range 1..4: {self.shift}")

    def reads(self) -> int:
        return self.base.mask

    def __repr__(self) -> str:
        return f"({self.base!r}>>{self.shift})"


Address = Union[Absolute, Displacement, BaseIndex, BaseShifted]


@dataclass(frozen=True)
class Load(Piece):
    """Load a word from data memory into ``dst``.

    The result is *not* bypassable to the immediately following
    instruction: the machine has no interlocks, so one load delay slot
    must be scheduled by software (section 4.2.1).
    """

    addr: Address
    dst: Reg
    #: analysis tag (e.g. the access kind the compiler emitted this for);
    #: never affects semantics, equality, or encoding
    note: Optional[str] = field(default=None, compare=False, repr=False)
    is_load = True

    def reads(self) -> int:
        return self.addr.reads()

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        return f"ld {self.addr!r},{self.dst!r}"


@dataclass(frozen=True)
class Store(Piece):
    """Store register ``src`` to data memory."""

    addr: Address
    src: Reg
    #: analysis tag, mirroring :class:`Load`; semantically inert
    note: Optional[str] = field(default=None, compare=False, repr=False)
    is_store = True

    def reads(self) -> int:
        return self.addr.reads() | self.src.mask

    def __repr__(self) -> str:
        return f"st {self.src!r},{self.addr!r}"


@dataclass(frozen=True)
class SetCond(Piece):
    """*Set Conditionally*: ``dst = 1 if (s1 cond s2) else 0``.

    Section 2.3.2: "MIPS provides a powerful Set Conditionally
    instruction with the same 16 comparisons found in conditional
    branches" -- the branch-free boolean evaluation primitive behind
    Figure 3 and Tables 5-6.
    """

    cond: Comparison
    s1: Operand
    s2: Operand
    dst: Reg

    def reads(self) -> int:
        return self.s1.mask | self.s2.mask

    def writes(self) -> int:
        return self.dst.mask

    def __repr__(self) -> str:
        return f"s{self.cond.value} {self.s1!r},{self.s2!r},{self.dst!r}"


@dataclass(frozen=True)
class CompareBranch(Piece):
    """Compare-and-branch with one of the 16 comparisons.

    The branch is *delayed* with a single instruction delay: if
    instruction ``i`` branches to ``L`` and the branch is taken, the
    executed sequence is ``i``, ``i+1``, ``L`` (section 4.2.1).
    """

    cond: Comparison
    s1: Operand
    s2: Operand
    target: Target
    is_flow = True
    delay_slots = 1

    def reads(self) -> int:
        return self.s1.mask | self.s2.mask

    def __repr__(self) -> str:
        return f"b{self.cond.value} {self.s1!r},{self.s2!r},{self.target}"


@dataclass(frozen=True)
class Jump(Piece):
    """Direct jump (optionally linking the return address into ``ra``).

    Direct jumps have a one-instruction branch delay.
    """

    target: Target
    link: bool = False
    is_flow = True
    delay_slots = 1

    def writes(self) -> int:
        return RA.mask if self.link else 0

    def __repr__(self) -> str:
        return f"{'jal' if self.link else 'jmp'} {self.target}"


@dataclass(frozen=True)
class JumpIndirect(Piece):
    """Indirect jump through a register; branch delay of **two**.

    Section 3.3: "returns to sequences that include indirect jumps ...
    have a branch delay of two."
    """

    reg: Reg
    link: bool = False
    is_flow = True
    delay_slots = 2

    def reads(self) -> int:
        return self.reg.mask

    def writes(self) -> int:
        return RA.mask if self.link else 0

    def __repr__(self) -> str:
        return f"{'jalr' if self.link else 'jmpr'} {self.reg!r}"


@dataclass(frozen=True)
class Trap(Piece):
    """Software trap with a 12-bit code (4096 monitor calls, section 3.3)."""

    code: int
    is_flow = True
    delay_slots = 0

    def __post_init__(self) -> None:
        if not 0 <= self.code < 4096:
            raise ValueError(f"trap code out of range 0..4095: {self.code}")

    def __repr__(self) -> str:
        return f"trap #{self.code}"


@dataclass(frozen=True)
class Rfs(Piece):
    """Return from surprise (privileged).

    Atomically restores the previous privilege/interrupt/mapping fields
    of the surprise register and reloads the instruction stream with the
    three saved return addresses ``xra0, xra1, xra2`` followed by
    sequential execution -- the paper's "return from interrupt sequence"
    that must "accept alternating references from two different address
    and privilege spaces" (section 3.3).
    """

    is_flow = True
    delay_slots = 0
    privileged = True

    def __repr__(self) -> str:
        return "rfs"


@dataclass(frozen=True)
class ReadSpecial(Piece):
    """Read a special register into a general register.

    Reading the surprise or segmentation registers requires supervisor
    privilege (section 3.2: "The only instructions that require
    supervisor privilege are those that read and write the surprise
    register and the on-chip segmentation registers").
    """

    sreg: SpecialReg
    dst: Reg

    def reads(self) -> int:
        return self.sreg.mask

    def writes(self) -> int:
        return self.dst.mask

    @property
    def privileged(self) -> bool:  # type: ignore[override]
        return self.sreg is not SpecialReg.LO

    def __repr__(self) -> str:
        return f"rdspec {self.sreg.value},{self.dst!r}"


@dataclass(frozen=True)
class WriteSpecial(Piece):
    """Write a general register (or short literal) to a special register.

    Writing ``LO`` (the byte selector used by insert byte) is
    unprivileged: ``mov rl,lo`` in the paper's store-byte sequence.
    """

    sreg: SpecialReg
    src: Operand

    def reads(self) -> int:
        return self.src.mask

    def writes(self) -> int:
        return self.sreg.mask

    @property
    def privileged(self) -> bool:  # type: ignore[override]
        return self.sreg is not SpecialReg.LO

    def __repr__(self) -> str:
        return f"wrspec {self.src!r},{self.sreg.value}"


#: pieces eligible for the ALU slot of a packed word (structural check in
#: :func:`repro.isa.words.can_pack` refines this)
ALU_SLOT_TYPES = (Alu, SetCond, MovImm)
#: pieces eligible for the memory slot of a packed word
MEM_SLOT_TYPES = (Load, Store)
