"""Seeded generation of raw-but-valid instruction streams.

Where :mod:`repro.fuzz.astgen` exercises the compiler, this module goes
straight at the machine: it emits assembly text the compiler would
never produce -- branch/delay-slot corners, immediate-boundary
constants straddling Table 1's encodings, condition-set chains, packed
words, ``mstep``/``dstep`` sequences -- and the differential oracle
demands both engines agree on the outcome word for word.

Generation is organized in **units**: small atomic line groups (a
branch plus its delay slot plus its landing label, a counted loop, a
call plus its subroutine) that are individually self-contained over a
fixed register discipline.  Any prefix of the unit list assembles and
terminates, which is what lets :mod:`repro.fuzz.minimize` bisect a
failing stream without ever separating a branch from its delay slot.

Register discipline: ``r2``-``r9`` are free game for generated code,
``r1`` is the trap-output register, ``r10``-``r12`` are loop counters,
and ``sp``/``ra`` keep their conventional jobs (``sp`` is never
modified; ``ra`` only by ``jal``).  Every program ends by printing
``r2``-``r9`` via ``trap #1`` and halting via ``trap #0``, so the
engines' outputs expose the full scratch state, not just a
fingerprint.

Loops always count down a dedicated counter; subroutines never call
further; traps beyond the I/O set are never emitted -- so every
generated program halts within a small bounded step count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

#: registers generated code may freely clobber
SCRATCH = tuple(f"r{n}" for n in range(2, 10))
#: loop counters -- written only by the loop templates themselves
COUNTERS = ("r10", "r11", "r12")

#: constants straddling the 4-bit operand, 8-bit movi, and 21-bit lim
#: encodings (Table 1's immediate-size buckets)
LIM_EDGES = (
    0, 1, 2, 15, 16, 17, 127, 128, 255, 256, 257, 4095, 4096,
    32767, 32768, 65535, 65536, 1048574, 1048575,
    -1, -2, -15, -16, -255, -256, -32768, -65536, -1048575, -1048576,
)
MOVI_EDGES = (0, 1, 2, 7, 8, 15, 16, 17, 31, 127, 128, 200, 254, 255)
SHORT_IMMS = (0, 1, 2, 3, 7, 8, 14, 15)

ALU_OPS = ("add", "sub", "rsub", "and", "or", "xor", "sll", "srl", "sra")
SET_OPS = ("seq", "sne", "slt", "sle", "sgt", "sge", "slo", "sls", "shi", "shs")
BRANCH_OPS = ("beq", "bne", "blt", "ble", "bgt", "bge", "blo", "bls", "bhi", "bhs")


@dataclass
class WordUnit:
    """One shrinkable group of assembly lines."""

    lines: List[str]
    #: (name, body lines) for subroutines this unit jal's into; emitted
    #: after the epilogue by the renderer exactly when the unit survives
    subroutines: List[Tuple[str, List[str]]] = field(default_factory=list)


class WordGenerator:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self._counter_cycle = 0

    # -- small pieces ------------------------------------------------------

    def reg(self) -> str:
        return self.rng.choice(SCRATCH)

    def operand(self) -> str:
        """A register or a 4-bit ``#`` constant."""
        if self.rng.random() < 0.4:
            return f"#{self.rng.choice(SHORT_IMMS)}"
        return self.reg()

    def alu_line(self) -> str:
        op = self.rng.choice(ALU_OPS)
        return f"    {op} {self.operand()}, {self.reg()}, {self.reg()}"

    def safe_delay_line(self) -> str:
        """A delay-slot filler: plain ALU or nop, never control flow."""
        if self.rng.random() < 0.3:
            return "    nop"
        return self.alu_line()

    # -- unit templates ----------------------------------------------------

    def unit_alu_chain(self, index: int) -> WordUnit:
        lines = [self.alu_line() for _ in range(self.rng.randrange(1, 4))]
        return WordUnit(lines)

    def unit_constants(self, index: int) -> WordUnit:
        """Immediate-boundary constants through every encoding size."""
        rng = self.rng
        lines = []
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.4:
                lines.append(f"    movi #{rng.choice(MOVI_EDGES)}, {self.reg()}")
            elif roll < 0.8:
                lines.append(f"    lim {rng.choice(LIM_EDGES)}, {self.reg()}")
            else:
                lines.append(
                    f"    add #{rng.choice(SHORT_IMMS)}, {self.reg()}, {self.reg()}"
                )
        return WordUnit(lines)

    def unit_setcond_chain(self, index: int) -> WordUnit:
        """CC-style chains: compare into a register, then branch on it."""
        rng = self.rng
        flag = self.reg()
        lines = [
            f"    {rng.choice(SET_OPS)} {self.operand()}, {self.operand()}, {flag}"
        ]
        if rng.random() < 0.5:
            # feed the flag through another compare (nested conditions)
            lines.append(f"    {rng.choice(SET_OPS)} {flag}, {self.operand()}, {self.reg()}")
        label = f"l{index}_s"
        lines.append(f"    bne {flag}, #0, {label}")
        lines.append(self.safe_delay_line())
        lines.append(self.alu_line())
        lines.append(f"{label}:")
        return WordUnit(lines)

    def unit_branch_skip(self, index: int) -> WordUnit:
        """Forward branch over 1-2 words, delay slot always live."""
        rng = self.rng
        label = f"l{index}_b"
        lines = [
            f"    {rng.choice(BRANCH_OPS)} {self.operand()}, {self.operand()}, {label}",
            self.safe_delay_line(),
        ]
        for _ in range(rng.randrange(1, 3)):
            lines.append(self.alu_line())
        lines.append(f"{label}:")
        lines.append(self.alu_line())
        return WordUnit(lines)

    def unit_counted_loop(self, index: int) -> WordUnit:
        """Backward branch: count a dedicated register down to zero."""
        rng = self.rng
        counter = COUNTERS[self._counter_cycle % len(COUNTERS)]
        self._counter_cycle += 1
        label = f"l{index}_t"
        lines = [f"    movi #{rng.randrange(1, 7)}, {counter}", f"{label}:"]
        for _ in range(rng.randrange(1, 3)):
            lines.append(self.alu_line())
        lines.append(f"    sub #1, {counter}, {counter}")
        lines.append(f"    bgt {counter}, #0, {label}")
        lines.append(self.safe_delay_line())
        return WordUnit(lines)

    def unit_memory(self, index: int) -> WordUnit:
        """Loads/stores across the addressing modes, kept in range."""
        rng = self.rng
        lines = []
        for _ in range(rng.randrange(1, 3)):
            roll = rng.random()
            if roll < 0.3:
                disp = rng.choice((0, 1, 2, 3, 7, 8, 15))
                lines.append(f"    st {self.reg()}, -{disp + 1}(sp)")
                lines.append(f"    ld -{disp + 1}(sp), {self.reg()}")
            elif roll < 0.6:
                lines.append(f"    st {self.reg()}, @buf")
                lines.append(f"    ld @buf, {self.reg()}")
            elif roll < 0.85:
                # (base+index) bounded inside buf's 16 words
                base, offset = self.reg(), self.reg()
                lines.append(f"    lim buf, {base}")
                lines.append(f"    and #15, {self.reg()}, {offset}")
                lines.append(f"    ld ({base}+{offset}), {self.reg()}")
            else:
                # packed words demand disp(base) addressing, disp 0..7,
                # and the two pieces must write distinct registers
                mem_dst, alu_dst = rng.sample(SCRATCH, 2)
                lines.append("    { ld %d(sp), %s | add #1, %s, %s }"
                             % (rng.randrange(0, 8), mem_dst, self.reg(), alu_dst))
        return WordUnit(lines)

    def unit_mstep_chain(self, index: int) -> WordUnit:
        """Multiply/divide-step sequences like the runtime emits."""
        rng = self.rng
        op = rng.choice(("mstep", "dstep"))
        a, b = self.reg(), self.reg()
        lines = [f"    movi #{rng.choice(MOVI_EDGES)}, {a}"]
        lines.extend(f"    {op} {a}, {b}, {b}" for _ in range(rng.randrange(2, 5)))
        return WordUnit(lines)

    def unit_call(self, index: int) -> WordUnit:
        """jal/jmpr round trip: two delay slots on the indirect return."""
        rng = self.rng
        name = f"s{index}_f"
        body = [f"{name}:"]
        for _ in range(rng.randrange(1, 3)):
            body.append(self.alu_line())
        body.append("    jmpr ra")
        body.append(self.safe_delay_line())
        body.append(self.safe_delay_line())
        lines = [
            f"    jal {name}",
            self.safe_delay_line(),
            self.alu_line(),
        ]
        return WordUnit(lines, subroutines=[(name, body)])

    def unit_output(self, index: int) -> WordUnit:
        """Mid-stream observable: print a scratch register."""
        return WordUnit([f"    mov {self.reg()}, r1", "    trap #1"])

    def unit(self, index: int) -> WordUnit:
        templates = (
            (0.16, self.unit_alu_chain),
            (0.32, self.unit_constants),
            (0.46, self.unit_setcond_chain),
            (0.60, self.unit_branch_skip),
            (0.72, self.unit_counted_loop),
            (0.84, self.unit_memory),
            (0.90, self.unit_mstep_chain),
            (0.96, self.unit_call),
            (1.01, self.unit_output),
        )
        roll = self.rng.random()
        for ceiling, template in templates:
            if roll < ceiling:
                return template(index)
        raise AssertionError("unreachable")


HEADER = [
    ".org 0",
    "buf: .space 16",
    "start:",
]


def epilogue() -> List[str]:
    """Print every scratch register, then halt -- the observable tail
    appended after whatever unit prefix survives shrinking."""
    lines = []
    for reg in SCRATCH:
        lines.append(f"    mov {reg}, r1")
        lines.append("    trap #1")
    lines.append("    trap #0")
    return lines


def generate_word_units(seed: int, index: int) -> List[WordUnit]:
    """The deterministic unit list for case ``(seed, index)``."""
    rng = random.Random((seed * 1_000_003 + index) ^ 0x0DDBA11)
    gen = WordGenerator(rng)
    return [gen.unit(n) for n in range(rng.randrange(4, 13))]


def render_word_case(units: Sequence[WordUnit]) -> str:
    """Render a (possibly shrunk) unit list as complete assembly."""
    lines = list(HEADER)
    for unit in units:
        lines.extend(unit.lines)
    lines.extend(epilogue())
    for unit in units:
        for _, body in unit.subroutines:
            lines.extend(body)
    return "\n".join(lines) + "\n"
