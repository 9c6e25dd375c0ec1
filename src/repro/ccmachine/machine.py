"""Simulator for the condition-code baseline machine.

Sequential (no delayed branches -- this is the conventional-machine
foil), with instruction-mix statistics and the paper's Table 6 cost
model: "register operations take time 1, compares take time 2, and
branches take time 4".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..isa.bits import s32, u32
from ..isa.operations import ALU_FUNCTIONS, AluOp
from ..lang.arith import OPERATORS
from .isa import (
    AbsAddr,
    Alu,
    Br,
    CcAluOp,
    CcCond,
    CcDiscipline,
    CcImm,
    CcInstr,
    CcMem,
    CcOperand,
    CcReg,
    Cmp,
    DispAddr,
    Halt,
    IdxAddr,
    Jsr,
    LabeledCcInstr,
    Move,
    Pop,
    Push,
    Rts,
    Scc,
    SysRead,
    SysWrite,
)

#: Table 6 cost weights
COST_REGISTER_OP = 1
COST_COMPARE = 2
COST_BRANCH = 4


class CcMachineError(Exception):
    pass


#: op -> ``f(dst, src)`` on u32 operands, built from the shared
#: definitions: the source-level operators (the CISC has multiply and
#: divide in hardware) and the MIPS ALU's logic and shift entries
_ALU: Dict[CcAluOp, Callable[[int, int], int]] = {
    CcAluOp.ADD: OPERATORS["+"],
    CcAluOp.SUB: OPERATORS["-"],
    CcAluOp.MUL: OPERATORS["*"],
    CcAluOp.DIV: OPERATORS["div"],
    CcAluOp.MOD: OPERATORS["mod"],
    CcAluOp.AND: ALU_FUNCTIONS[AluOp.AND],
    CcAluOp.OR: ALU_FUNCTIONS[AluOp.OR],
    CcAluOp.XOR: ALU_FUNCTIONS[AluOp.XOR],
    CcAluOp.SLL: ALU_FUNCTIONS[AluOp.SLL],
    CcAluOp.SRA: ALU_FUNCTIONS[AluOp.SRA],
    CcAluOp.NEG: lambda dst, src: OPERATORS["-"](0, src),
    CcAluOp.NOT: lambda dst, src: 1 - (src & 1),
}


@dataclass
class CcProgram:
    """Resolved CC-machine code plus its symbol table."""

    instrs: List[CcInstr]
    symbols: Dict[str, int]
    entry: int = 0
    global_addrs: Dict[str, int] = field(default_factory=dict)

    @property
    def static_count(self) -> int:
        return len(self.instrs)

    def listing(self) -> str:
        label_at = {v: k for k, v in self.symbols.items()}
        return "\n".join(
            f"{i:5d}  {label_at.get(i, '') + ':' if i in label_at else '':14s}{ins!r}"
            for i, ins in enumerate(self.instrs)
        )


def resolve(stream: List[LabeledCcInstr], entry_symbol: str = "start") -> CcProgram:
    """Resolve labels in a CC instruction stream."""
    symbols: Dict[str, int] = {}
    instrs: List[CcInstr] = []
    for label, instr in stream:
        if label is not None:
            if label in symbols:
                raise CcMachineError(f"label {label!r} redefined")
            symbols[label] = len(instrs)
        instrs.append(instr)
    resolved: List[CcInstr] = []
    for instr in instrs:
        if isinstance(instr, (Br, Jsr)) and isinstance(instr.target, str):
            if instr.target not in symbols:
                raise CcMachineError(f"undefined label {instr.target!r}")
            if isinstance(instr, Br):
                resolved.append(Br(instr.cond, symbols[instr.target]))
            else:
                resolved.append(Jsr(symbols[instr.target]))
        else:
            resolved.append(instr)
    return CcProgram(resolved, symbols, symbols.get(entry_symbol, 0))


@dataclass
class CcStats:
    """Dynamic instruction-mix counters."""

    instructions: int = 0
    moves: int = 0
    alu_ops: int = 0
    compares: int = 0
    branches: int = 0
    branches_taken: int = 0
    scc_ops: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    calls: int = 0

    @property
    def weighted_cost(self) -> float:
        """The Table 6 cost model over the executed mix.

        Compares cost 2, branch instructions 4, everything else 1.
        """
        others = self.instructions - self.compares - self.branches
        return (
            others * COST_REGISTER_OP
            + self.compares * COST_COMPARE
            + self.branches * COST_BRANCH
        )


class CcMachine:
    """Executes a resolved CC program."""

    NUM_REGS = 16
    FP = CcReg(13)
    SP = CcReg(14)

    def __init__(
        self,
        program: CcProgram,
        discipline: CcDiscipline = CcDiscipline.OPERATIONS_AND_MOVES,
        memory_size: int = 1 << 20,
        inputs: Optional[List[int]] = None,
    ):
        self.program = program
        self.discipline = discipline
        self.regs = [0] * self.NUM_REGS
        self.memory: Dict[int, int] = {}
        self.memory_size = memory_size
        self.pc = program.entry
        self.cc_n = False
        self.cc_z = True
        self.stats = CcStats()
        self.output: List[int] = []
        self.char_output: List[str] = []
        self.inputs = list(inputs or [])
        self.halted = False
        self.regs[self.SP.number] = memory_size - 1

    # -- operand access ---------------------------------------------------------

    def _ea(self, addr) -> int:
        if isinstance(addr, AbsAddr):
            return addr.addr
        if isinstance(addr, DispAddr):
            return u32(self.regs[addr.base.number] + addr.offset)
        if isinstance(addr, IdxAddr):
            return self.regs[addr.base.number]
        raise CcMachineError(f"bad address {addr!r}")

    def read(self, operand: CcOperand) -> int:
        if isinstance(operand, CcImm):
            return u32(operand.value)
        if isinstance(operand, CcReg):
            return self.regs[operand.number]
        ea = self._ea(operand.addr)
        self.stats.memory_reads += 1
        return self.memory.get(ea, 0)

    def write(self, operand: CcOperand, value: int) -> None:
        value = u32(value)
        if isinstance(operand, CcReg):
            self.regs[operand.number] = value
            return
        if isinstance(operand, CcMem):
            ea = self._ea(operand.addr)
            if not 0 <= ea < self.memory_size:
                raise CcMachineError(f"store outside memory: {ea:#x}")
            self.stats.memory_writes += 1
            self.memory[ea] = value
            return
        raise CcMachineError(f"cannot write {operand!r}")

    # -- condition code -----------------------------------------------------------

    def set_cc(self, value: int) -> None:
        self.cc_n = s32(value) < 0
        self.cc_z = u32(value) == 0

    def cond_true(self, cond: CcCond) -> bool:
        if cond is CcCond.ALWAYS:
            return True
        if cond is CcCond.EQ:
            return self.cc_z
        if cond is CcCond.NE:
            return not self.cc_z
        if cond is CcCond.LT:
            return self.cc_n
        if cond is CcCond.GE:
            return not self.cc_n
        if cond is CcCond.LE:
            return self.cc_n or self.cc_z
        return not (self.cc_n or self.cc_z)  # GT

    # -- execution --------------------------------------------------------------------

    def _alu(self, op: CcAluOp, src: int, dst: int) -> int:
        try:
            return _ALU[op](dst, src)
        except ZeroDivisionError:
            raise CcMachineError("division by zero") from None

    def step(self) -> None:
        if not 0 <= self.pc < len(self.program.instrs):
            raise CcMachineError(f"pc out of range: {self.pc}")
        instr = self.program.instrs[self.pc]
        self.stats.instructions += 1
        next_pc = self.pc + 1

        if isinstance(instr, Move):
            self.stats.moves += 1
            value = self.read(instr.src)
            self.write(instr.dst, value)
            if instr.sets_cc(self.discipline):
                self.set_cc(value)
        elif isinstance(instr, Alu):
            self.stats.alu_ops += 1
            result = self._alu(instr.op, self.read(instr.src), self.read(instr.dst))
            self.write(instr.dst, result)
            self.set_cc(result)
        elif isinstance(instr, Cmp):
            self.stats.compares += 1
            # VAX-style compare: N/Z reflect the exact signed relation,
            # not the wrapped subtraction -- N from a 32-bit a-b is wrong
            # when the difference overflows (e.g. 2 vs INT_MIN+1), which
            # an N-only condition model cannot recover from
            a, b = s32(self.read(instr.a)), s32(self.read(instr.b))
            self.cc_n = a < b
            self.cc_z = a == b
        elif isinstance(instr, Br):
            self.stats.branches += 1
            if self.cond_true(instr.cond):
                self.stats.branches_taken += 1
                next_pc = int(instr.target)
        elif isinstance(instr, Scc):
            self.stats.scc_ops += 1
            self.write(instr.dst, 1 if self.cond_true(instr.cond) else 0)
        elif isinstance(instr, Jsr):
            self.stats.calls += 1
            sp = self.regs[self.SP.number] - 1
            self.regs[self.SP.number] = sp
            self.memory[sp] = next_pc
            self.stats.memory_writes += 1
            next_pc = int(instr.target)
        elif isinstance(instr, Rts):
            sp = self.regs[self.SP.number]
            next_pc = self.memory.get(sp, 0)
            self.stats.memory_reads += 1
            self.regs[self.SP.number] = sp + 1
        elif isinstance(instr, Push):
            sp = self.regs[self.SP.number] - 1
            self.regs[self.SP.number] = sp
            self.memory[sp] = self.read(instr.src)
            self.stats.memory_writes += 1
        elif isinstance(instr, Pop):
            sp = self.regs[self.SP.number]
            self.stats.memory_reads += 1
            self.write(instr.dst, self.memory.get(sp, 0))
            self.regs[self.SP.number] = sp + 1
        elif isinstance(instr, Halt):
            self.halted = True
            return
        elif isinstance(instr, SysWrite):
            value = self.read(instr.src)
            if instr.kind == "char":
                self.char_output.append(chr(value & 0xFF))
            else:
                self.output.append(s32(value))
        elif isinstance(instr, SysRead):
            self.write(instr.dst, self.inputs.pop(0) if self.inputs else 0)
        else:
            raise CcMachineError(f"unexecutable {instr!r}")

        self.pc = next_pc

    def run(self, max_steps: int = 5_000_000) -> CcStats:
        for _ in range(max_steps):
            if self.halted:
                return self.stats
            self.step()
        raise TimeoutError(f"CC program did not halt within {max_steps} steps")

    @property
    def output_text(self) -> str:
        return "".join(self.char_output)
