"""The processor core: functional execution + pipeline timing.

The modeled pipeline is the paper's five-stage, interlock-free design:

- every instruction word occupies exactly five stages and issues one per
  cycle, so in steady state **cycles == words executed** (plus the
  stalls that only the *interlocked* comparison mode charges);
- ALU results are fully bypassed (available to the next word);
- a **load** result is *not* available to the immediately following
  word: there is one load delay slot, and nothing enforces it -- in
  ``BARE`` mode the next word really reads the stale register value,
  exactly as the hardware would (section 4.2.1: there are *no* hardware
  interlocks);
- direct branches/jumps are **delayed** by one instruction, indirect
  jumps by two; the delay-slot instructions always execute;
- a memory-referencing word commits *no* register writes until its
  memory reference has committed, which is what makes faulting
  instructions restartable (section 3.3).

Hazard modes:

``BARE``
    Faithful hardware semantics.  Mis-scheduled code silently reads
    stale values.
``CHECKED``
    Like bare, but raises :class:`HazardViolation` when code reads a
    register in its load delay slot -- used to validate the reorganizer.
``INTERLOCKED``
    The hypothetical hardware-interlock machine the paper argues
    against: load-use stalls one cycle (with forwarding), and taken
    branches squash their delay slots, costing the full branch delay.
    Used for the hardware-vs-software ablation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.addressing import ADDRESS_FUNCTIONS, segment_translator
from ..isa.bits import u32
from ..isa.encoding import decode
from ..isa.operations import AluOp, alu_evaluate, alu_insert_byte, alu_overflows, compare
from ..isa.pieces import (
    Alu,
    CompareBranch,
    Imm,
    Jump,
    JumpIndirect,
    Load,
    LoadImm,
    MovImm,
    Noop,
    Operand,
    ReadSpecial,
    Rfs,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from ..isa.registers import NUM_REGISTERS, RA, SpecialReg
from ..isa.words import InstructionWord
from .faults import (
    HazardViolation,
    IllegalInstruction,
    InterruptRequest,
    KernelPanic,
    MachineFault,
    OverflowTrap,
    PageFault,
    PrivilegeViolation,
    TrapInstruction,
)
from .memory import MemorySystem, PhysicalMemory
from .surprise import SurpriseRegister


class HazardMode(Enum):
    BARE = "bare"
    CHECKED = "checked"
    INTERLOCKED = "interlocked"


@dataclass
class CpuStats:
    """Execution statistics.

    ``free_memory_cycles`` counts executed words whose data-memory slot
    went unused -- the bandwidth the paper's *free memory cycle* pin
    exports for DMA and cache write-backs (section 3.1).
    """

    cycles: int = 0
    words: int = 0
    pieces: int = 0
    noops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branches_taken: int = 0
    memory_cycles_used: int = 0
    free_memory_cycles: int = 0
    load_stalls: int = 0
    branch_flush_cycles: int = 0
    exceptions: int = 0
    ref_notes: Counter = field(default_factory=Counter)

    @property
    def free_cycle_fraction(self) -> float:
        """Fraction of data-memory bandwidth left free."""
        if self.words == 0:
            return 0.0
        return self.free_memory_cycles / self.words


class Cpu:
    """The processor.  See the module docstring for the pipeline model."""

    def __init__(
        self,
        memory: Optional[MemorySystem] = None,
        hazard_mode: HazardMode = HazardMode.BARE,
        vectored_exceptions: bool = False,
    ):
        self.memory: MemorySystem = memory if memory is not None else PhysicalMemory()
        self.hazard_mode = hazard_mode
        #: when True, faults run the surprise sequence (PC := 0 in
        #: physical supervisor space); when False they propagate to the
        #: Python caller -- convenient for bare-metal program runs.
        self.vectored_exceptions = vectored_exceptions

        self.regs: List[int] = [0] * NUM_REGISTERS
        self.pc = 0
        self.lo = 0
        self.surprise = SurpriseRegister()
        #: the three exception return addresses (section 3.3)
        self.xra: List[int] = [0, 0, 0]
        #: on-chip segmentation: number of masked top bits (0..8)
        self.seg_mask = 0
        #: the process identifier inserted into masked addresses
        self.seg_pid = 0
        #: the single external interrupt line (section 3.3)
        self.interrupt_line = False

        #: optional trap intercept: ``hook(cpu, code) -> bool`` -- True
        #: means the trap was serviced outside the architecture
        #: (bare-metal runtime services); False falls through to the
        #: surprise sequence / Python caller.
        self.trap_hook: Optional[Callable[["Cpu", int], bool]] = None

        #: True between a vectored surprise sequence and the matching
        #: ``rfs`` -- the window in which a second fault is a double
        #: fault (the saved state would be overwritten, so nothing
        #: could recover; see :class:`~repro.sim.faults.KernelPanic`).
        self.in_exception = False
        #: optional observer ``(cpu, fault, pre_surprise, pre_pc)``
        #: called after every vectored surprise sequence -- the chaos
        #: invariant checker hooks it to validate the recovery contract.
        #: Costs one attribute test per *fault*, nothing per step.
        self.fault_observer: Optional[Callable[["Cpu", MachineFault, int, int], None]] = None

        self.stats = CpuStats()
        #: optional :class:`repro.perf.profiler.Profiler`.  When set,
        #: every completed word increments its per-PC count (the fast
        #: path merges burst counts into the same dicts) and faults,
        #: traps, and ``rfs`` land in its event ring.  Costs one ``is
        #: None`` test per reference step when detached.
        self.profiler = None
        self._pending_branches: List[List[int]] = []  # [countdown, target]
        self._forced_stream: List[int] = []  # pcs forced by rfs
        self._deferred_load: Dict[int, int] = {}  # reg number -> value in flight
        self._decode_cache: Dict[int, Tuple[int, InstructionWord]] = {}
        self._fastpath = None  # lazily-built FastPathEngine

    # ------------------------------------------------------------------
    # address translation (the on-chip segmentation unit, section 3.1)
    # ------------------------------------------------------------------

    def translate(self, addr: int) -> int:
        """A process address's system address, by the segment check of
        :mod:`repro.isa.addressing`; the hole between the regions faults."""
        addr &= 4294967295
        sysaddr = segment_translator(self.seg_pid, self.seg_mask)(addr)
        if sysaddr is None:
            raise PageFault(addr)
        return sysaddr

    def _mem_addr(self, addr: int) -> Tuple[int, bool]:
        """(address presented to the memory system, was it mapped?)."""
        if self.surprise.mapping_enabled:
            return self.translate(addr), True
        return u32(addr), False

    def _read_mem(self, addr: int, fetch: bool = False) -> int:
        sysaddr, mapped = self._mem_addr(addr)
        return self.memory.read(
            sysaddr, supervisor=self.surprise.supervisor, fetch=fetch, mapped=mapped
        )

    def _write_mem(self, addr: int, value: int) -> None:
        sysaddr, mapped = self._mem_addr(addr)
        self.memory.write(sysaddr, value, supervisor=self.surprise.supervisor, mapped=mapped)

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------

    def read_operand(self, operand: Operand) -> int:
        if isinstance(operand, Imm):
            return operand.value
        return self.regs[operand.number]

    # ------------------------------------------------------------------
    # fetch / next-pc machinery
    # ------------------------------------------------------------------

    def fetch(self, addr: int) -> InstructionWord:
        bits = self._read_mem(addr, fetch=True)
        cached = self._decode_cache.get(addr)
        if cached is not None and cached[0] == bits:
            return cached[1]
        try:
            word = decode(bits, addr)
        except MachineFault:
            raise
        except Exception as exc:
            raise IllegalInstruction(f"undecodable word at {addr}: {bits:#010x}") from exc
        self._decode_cache[addr] = (bits, word)
        return word

    def upcoming_pcs(self, n: int = 3) -> List[int]:
        """The next ``n`` instruction addresses, honoring pending branches.

        The first entry is the current PC (the not-yet-executed
        instruction) -- exactly the restart sequence an exception must
        save (section 3.3: "the offending instruction, its successor,
        and then the target of the branch").
        """
        pcs: List[int] = []
        pc = self.pc
        pending = [entry[:] for entry in self._pending_branches]
        forced = list(self._forced_stream)
        for _ in range(n):
            pcs.append(pc)
            next_pc = pc + 1
            fired = None
            for entry in pending:
                entry[0] -= 1
                if entry[0] == 0:
                    fired = entry[1]
            pending = [entry for entry in pending if entry[0] > 0]
            if fired is not None:
                next_pc = fired
                forced = []
            elif forced:
                next_pc = forced.pop(0)
            pc = next_pc
        return pcs

    def _advance_pc(self, pc: int, branch: Optional[Tuple[int, int]]) -> None:
        """Compute the next PC after executing the word at ``pc``."""
        next_pc = pc + 1
        fired: Optional[int] = None
        for entry in self._pending_branches:
            entry[0] -= 1
            if entry[0] == 0:
                fired = entry[1]
        self._pending_branches = [e for e in self._pending_branches if e[0] > 0]
        if fired is not None:
            next_pc = fired
            self._forced_stream = []
        elif self._forced_stream:
            next_pc = self._forced_stream.pop(0)

        if branch is not None:
            delay, target = branch
            if self.hazard_mode is HazardMode.INTERLOCKED:
                # hardware clears the pipe: slots squashed, delay charged
                self.stats.branch_flush_cycles += delay
                self.stats.cycles += delay
                if self.profiler is not None and delay:
                    self.profiler.charge_flush(pc, delay)
                self._pending_branches = []
                next_pc = target
            elif delay == 0:
                next_pc = target
            else:
                self._pending_branches.append([delay, target])

        self.pc = next_pc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction word (one pipeline issue)."""
        if self.interrupt_line and self.surprise.interrupts_enabled:
            self._take_fault(InterruptRequest("external interrupt"))
            return
        try:
            self._execute_at(self.pc)
        except MachineFault as fault:
            self._take_fault(fault)

    def fastpath(self) -> "FastPathEngine":
        """The threaded-code batch executor bound to this CPU (lazy).

        The engine shares all architectural state with the reference
        stepper; callers may freely interleave ``fastpath().run(...)``
        with :meth:`step` -- see :mod:`repro.sim.fastpath`.
        """
        if self._fastpath is None:
            from .fastpath import FastPathEngine

            self._fastpath = FastPathEngine(self)
        return self._fastpath

    def run(self, max_steps: int = 1_000_000) -> int:
        """Step repeatedly; returns the number of steps executed.

        With vectored exceptions the kernel handles everything and only
        the step budget stops the run; without, the first fault (or
        :class:`~repro.sim.faults.Halted` from a trap hook) propagates.
        """
        for step_index in range(max_steps):
            self.step()
        return max_steps

    def _take_fault(self, fault: MachineFault) -> None:
        """Run the surprise sequence, or surface the fault to Python."""
        self.stats.exceptions += 1
        if self.profiler is not None:
            self.profiler.record_event(
                "fault", self.stats.words, self.pc, fault.cause.name, fault.minor
            )
        if not self.vectored_exceptions:
            raise fault
        if self.in_exception:
            # a fault inside the exception path: the previous fields and
            # the saved return addresses would be overwritten, so the
            # interrupted state is unrecoverable -- double fault
            raise KernelPanic(
                self.surprise.major_cause,
                self.surprise.minor_cause,
                fault.cause,
                fault.minor & 0xFFF,
                self.xra,
                self.pc,
            )
        observer = self.fault_observer
        pre = (self.surprise.value, self.pc) if observer is not None else None
        # all logically-earlier instructions complete first: land the
        # in-flight load before saving state
        self._apply_deferred()
        self.xra = self.upcoming_pcs(3)
        self.surprise.enter_exception(fault.cause, fault.minor)
        self._pending_branches = []
        self._forced_stream = []
        # "the program counter is zeroed so that execution begins at the
        # start of the first physical page"
        self.pc = 0
        self.in_exception = True
        if observer is not None:
            observer(self, fault, pre[0], pre[1])

    def _apply_deferred(self) -> None:
        for number, value in self._deferred_load.items():
            self.regs[number] = value
        self._deferred_load = {}

    def _execute_at(self, pc: int) -> None:
        word = self.fetch(pc)

        # ---- hazard accounting against the in-flight load ---------------
        if self._deferred_load:
            conflicted = [n for n in self._deferred_load if word.reads() >> n & 1]
            if conflicted:
                if self.hazard_mode is HazardMode.CHECKED:
                    raise HazardViolation(
                        f"word at {pc} reads r{sorted(conflicted)[0]} in a load "
                        f"delay slot: {word!r}"
                    )
                if self.hazard_mode is HazardMode.INTERLOCKED:
                    # one stall cycle, then forward the loaded value
                    self.stats.load_stalls += 1
                    self.stats.cycles += 1
                    if self.profiler is not None:
                        self.profiler.charge_stall(pc)
                    self._apply_deferred()

        mem_piece = word.mem
        reg_writes: Dict[int, int] = {}
        load_write: Dict[int, int] = {}
        special_writes: Dict[SpecialReg, int] = {}
        branch: Optional[Tuple[int, int]] = None
        is_rfs = False
        trap_code: Optional[int] = None

        pieces = word.pieces
        self.stats.pieces += sum(0 if isinstance(p, Noop) else 1 for p in pieces)

        # ---- evaluate from pre-state -------------------------------------
        # Fault ordering: overflow / privilege checks happen before the
        # memory reference; the memory reference commits before any
        # register write (restartability, section 3.3).
        for piece in pieces:
            if isinstance(piece, Alu):
                s1 = self.read_operand(piece.s1)
                if piece.op is AluOp.IC:
                    result = alu_insert_byte(self.lo, s1, self.regs[piece.dst.number])
                else:
                    s2 = self.read_operand(piece.s2)
                    if self.surprise.overflow_traps_enabled and alu_overflows(
                        piece.op, s1, s2
                    ):
                        raise OverflowTrap(f"overflow in {piece!r}")
                    result = alu_evaluate(piece.op, s1, s2)
                reg_writes[piece.dst.number] = result
            elif isinstance(piece, MovImm):
                reg_writes[piece.dst.number] = piece.value
            elif isinstance(piece, LoadImm):
                reg_writes[piece.dst.number] = u32(piece.value)
            elif isinstance(piece, SetCond):
                taken = compare(
                    piece.cond, self.read_operand(piece.s1), self.read_operand(piece.s2)
                )
                reg_writes[piece.dst.number] = 1 if taken else 0
            elif isinstance(piece, CompareBranch):
                self.stats.branches += 1
                taken = compare(
                    piece.cond, self.read_operand(piece.s1), self.read_operand(piece.s2)
                )
                if taken:
                    self.stats.branches_taken += 1
                    branch = (piece.delay_slots, int(piece.target))
            elif isinstance(piece, Jump):
                self.stats.branches += 1
                self.stats.branches_taken += 1
                branch = (piece.delay_slots, int(piece.target))
                if piece.link:
                    reg_writes[RA.number] = pc + 1 + piece.delay_slots
            elif isinstance(piece, JumpIndirect):
                self.stats.branches += 1
                self.stats.branches_taken += 1
                branch = (piece.delay_slots, self.regs[piece.reg.number])
                if piece.link:
                    reg_writes[RA.number] = pc + 1 + piece.delay_slots
            elif isinstance(piece, Trap):
                trap_code = piece.code
            elif isinstance(piece, Rfs):
                if not self.surprise.supervisor:
                    raise PrivilegeViolation("rfs at user level")
                is_rfs = True
            elif isinstance(piece, ReadSpecial):
                if piece.privileged and not self.surprise.supervisor:
                    raise PrivilegeViolation(f"{piece!r} at user level")
                reg_writes[piece.dst.number] = self._read_special(piece.sreg)
            elif isinstance(piece, WriteSpecial):
                if piece.privileged and not self.surprise.supervisor:
                    raise PrivilegeViolation(f"{piece!r} at user level")
                special_writes[piece.sreg] = self.read_operand(piece.src)
            elif isinstance(piece, (Load, Store)):
                pass  # the memory reference happens below
            elif isinstance(piece, Noop):
                self.stats.noops += 1
            else:
                raise IllegalInstruction(f"unexecutable piece {piece!r}")

        # ---- the memory reference (may fault; nothing written yet) -------
        if isinstance(mem_piece, Load):
            mode = mem_piece.addr
            value = self._read_mem(ADDRESS_FUNCTIONS[mode.__class__](self.regs, mode))
            load_write[mem_piece.dst.number] = value
            self.stats.loads += 1
            if mem_piece.note:
                self.stats.ref_notes[mem_piece.note] += 1
        elif isinstance(mem_piece, Store):
            mode = mem_piece.addr
            self._write_mem(
                ADDRESS_FUNCTIONS[mode.__class__](self.regs, mode),
                self.regs[mem_piece.src.number],
            )
            self.stats.stores += 1
            if mem_piece.note:
                self.stats.ref_notes[mem_piece.note] += 1

        # ---- commit --------------------------------------------------------
        # the previous word's in-flight load lands before this word's writes
        self._apply_deferred()
        for number, value in reg_writes.items():
            self.regs[number] = value
        for sreg, value in special_writes.items():
            self._write_special(sreg, value)
        if self.hazard_mode is HazardMode.INTERLOCKED:
            # forwarding hardware: the load value is usable immediately,
            # but remember it to charge the stall on next-word use
            for number, value in load_write.items():
                self.regs[number] = value
        self._deferred_load = load_write

        # ---- timing ----------------------------------------------------------
        self.stats.words += 1
        self.stats.cycles += 1
        profiler = self.profiler
        if profiler is not None:
            counts = profiler.counts
            counts[pc] = counts.get(pc, 0) + 1
        if word.uses_memory:
            self.stats.memory_cycles_used += 1
        else:
            self.stats.free_memory_cycles += 1

        # ---- control flow -----------------------------------------------------
        if is_rfs:
            if profiler is not None:
                profiler.record_event("rfs", self.stats.words, pc)
            # the return sequence drains the pipe: the in-flight load (if
            # any) lands before the first resumed instruction issues
            self._apply_deferred()
            self.surprise.restore_previous()
            self.in_exception = False
            self.pc = self.xra[0]
            self._forced_stream = [self.xra[1], self.xra[2]]
            self._pending_branches = []
            return

        self._advance_pc(pc, branch)

        if trap_code is not None:
            if profiler is not None:
                profiler.record_event("trap", self.stats.words, pc, trap_code)
            handled = self.trap_hook(self, trap_code) if self.trap_hook else False
            if not handled:
                # the trap word itself completed: the saved return stream
                # begins at the continuation (self.pc is already there)
                raise TrapInstruction(trap_code)

    # ------------------------------------------------------------------
    # special registers
    # ------------------------------------------------------------------

    def _read_special(self, sreg: SpecialReg) -> int:
        if sreg is SpecialReg.LO:
            return self.lo
        if sreg is SpecialReg.SURPRISE:
            return self.surprise.value
        if sreg is SpecialReg.SEG_MASK:
            return self.seg_mask
        if sreg is SpecialReg.SEG_PID:
            return self.seg_pid
        if sreg is SpecialReg.XRA0:
            return self.xra[0]
        if sreg is SpecialReg.XRA1:
            return self.xra[1]
        return self.xra[2]

    def _write_special(self, sreg: SpecialReg, value: int) -> None:
        value = u32(value)
        if sreg is SpecialReg.LO:
            self.lo = value
        elif sreg is SpecialReg.SURPRISE:
            self.surprise.value = value
        elif sreg is SpecialReg.SEG_MASK:
            if value > 8:
                raise IllegalInstruction(f"segment mask must be 0..8, got {value}")
            self.seg_mask = value
        elif sreg is SpecialReg.SEG_PID:
            self.seg_pid = value & ((1 << self.seg_mask) - 1) if self.seg_mask else 0
        elif sreg is SpecialReg.XRA0:
            self.xra[0] = value
        elif sreg is SpecialReg.XRA1:
            self.xra[1] = value
        else:
            self.xra[2] = value
