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

Pipeline state: between two words it is one five-slot list,
:attr:`Cpu.pipe`, which the reference stepper and the fast path's
handlers both read and write in place and never rebind:

- ``pipe[0]``: the in-flight load's register, or -1; ``pipe[1]``: that
  load's value;
- ``pipe[2]``: the branch target due after the next word, or -1;
- ``pipe[3]``: the target due one word later, or -1 (register values
  are never negative, so -1 is never a target);
- ``pipe[4]``: the current fast-path burst's count of taken branches.

Each word shifts ``pipe[3]`` into ``pipe[2]`` as the due target fires;
a transfer with one delay slot is then written to ``pipe[2]``, one with
two delay slots to ``pipe[3]``.  So a transfer issued in a delay slot
that falls due at the same step as an earlier one replaces it: the
later-issued transfer wins the tie.  Exception entry saves the next
three PCs -- the PC and the two that follow it through the slots -- as
``xra0``--``xra2`` and clears the slots; ``rfs`` writes them back, to the
PC, ``pipe[2]`` and ``pipe[3]``, so the restart stream is ordinary
pipeline state.

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

Step plans: a word is decoded once.  The decode cache holds one
:class:`StepPlan` per address, revalidated by the bits each fetch reads;
its first reference step derives from the word everything that never
changes for it (piece count, read mask, one operation per piece with
the evaluator it needs, the memory piece with its address function), so
a step fetches with one translation and one memory read, runs the plan
and makes one translation and one memory reference per data access.
The step keeps this fault ordering: pieces are counted before anything
is evaluated; overflow and privilege checks run before the memory
reference; nothing commits before the memory reference, and the
previous word's in-flight load lands at commit, before this word's
writes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.addressing import ADDRESS_FUNCTIONS, segment_translator
from ..isa.bits import u32
from ..isa.encoding import decode
from ..isa.operations import ALU_FUNCTIONS, COMPARE_FUNCTIONS, OVERFLOW_FUNCTIONS, AluOp
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


# The kinds of a step plan's operations.  A step compares them by
# identity, most frequent first.
_ALU = "alu"
_CONST = "const"
_BRANCH = "branch"
_NOOP = "noop"
_JUMP = "jump"
_SETCOND = "setcond"
_JUMPR = "jumpr"
_INSERT = "insert"
_TRAP = "trap"
_RDSPEC = "rdspec"
_WRSPEC = "wrspec"
_RFS = "rfs"
_ILLEGAL = "illegal"


def _operand(operand: Operand) -> int:
    """A plan's operand: a register as its number, an immediate ``k`` as
    ``~k`` (negative), so a step reads it as ``regs[n] if n >= 0 else ~n``."""
    return ~operand.value if isinstance(operand, Imm) else operand.number


class StepPlan:
    """A decode-cache entry: the word fetched at one address, decoded once.

    ``bits`` revalidate the entry on every fetch and ``word`` is the
    decoded (or loader-seeded) word.  The rest is derived from ``word``
    by :meth:`build` on the word's first reference step, so the fast
    path and the counters, which need only ``word``, never pay for it:

    - ``pieces``: the word's non-no-op piece count; ``reads``: its read
      mask; ``uses_memory``: whether it takes the data-memory cycle;
    - ``ops``: one tuple per piece other than the memory piece, in piece
      order, headed by its kind and holding what the piece needs: its
      evaluator from the compiled tables of :mod:`repro.isa.operations`,
      operands (see :func:`_operand`), destination, and the piece itself
      for a fault's message.  A word writes at most one general register
      before its load (:class:`InstructionWord` packs a load or store with
      at most one ALU piece);
    - ``mem``: ``(is_load, address function, mode, register, note)`` of
      the load or store, the function its :data:`ADDRESS_FUNCTIONS`
      entry, the register its destination or source; or None.
    """

    __slots__ = ("bits", "word", "ops", "pieces", "reads", "uses_memory", "mem")

    def __init__(self, bits: int, word: InstructionWord):
        self.bits = bits
        self.word = word
        self.ops: Optional[tuple] = None

    def build(self, pc: int) -> tuple:
        """Derive the plan of ``word`` fetched at ``pc``; returns ``ops``."""
        word = self.word
        pieces = word.pieces
        ops: list = []
        for piece in pieces:
            if isinstance(piece, Alu):
                if piece.op is AluOp.IC:
                    ops.append(
                        (_INSERT, ALU_FUNCTIONS[AluOp.IC], _operand(piece.s1), piece.dst.number)
                    )
                else:
                    ops.append((
                        _ALU, ALU_FUNCTIONS[piece.op], _operand(piece.s1), _operand(piece.s2),
                        piece.dst.number, OVERFLOW_FUNCTIONS.get(piece.op), piece,
                    ))
            elif isinstance(piece, MovImm):
                ops.append((_CONST, piece.value, piece.dst.number))
            elif isinstance(piece, LoadImm):
                ops.append((_CONST, u32(piece.value), piece.dst.number))
            elif isinstance(piece, SetCond):
                ops.append((
                    _SETCOND, COMPARE_FUNCTIONS[piece.cond], _operand(piece.s1),
                    _operand(piece.s2), piece.dst.number,
                ))
            elif isinstance(piece, CompareBranch):
                ops.append((
                    _BRANCH, COMPARE_FUNCTIONS[piece.cond], _operand(piece.s1),
                    _operand(piece.s2), (piece.delay_slots, int(piece.target)),
                ))
            elif isinstance(piece, Jump):
                ops.append((_JUMP, (piece.delay_slots, int(piece.target))))
                if piece.link:
                    ops.append((_CONST, pc + 1 + piece.delay_slots, RA.number))
            elif isinstance(piece, JumpIndirect):
                ops.append((_JUMPR, piece.delay_slots, piece.reg.number))
                if piece.link:
                    ops.append((_CONST, pc + 1 + piece.delay_slots, RA.number))
            elif isinstance(piece, Trap):
                ops.append((_TRAP, piece.code))
            elif isinstance(piece, Rfs):
                ops.append((_RFS,))
            elif isinstance(piece, ReadSpecial):
                ops.append((_RDSPEC, piece.sreg, piece.dst.number, piece.privileged, piece))
            elif isinstance(piece, WriteSpecial):
                ops.append((_WRSPEC, piece.sreg, _operand(piece.src), piece.privileged, piece))
            elif isinstance(piece, (Load, Store)):
                pass  # the memory reference follows the other pieces
            elif isinstance(piece, Noop):
                ops.append((_NOOP,))
            else:
                ops.append((_ILLEGAL, piece))
        mem = word.mem
        if isinstance(mem, (Load, Store)):
            is_load = isinstance(mem, Load)
            self.mem = (
                is_load, ADDRESS_FUNCTIONS[mem.addr.__class__], mem.addr,
                (mem.dst if is_load else mem.src).number, mem.note,
            )
        else:
            self.mem = None
        self.pieces = sum(0 if isinstance(p, Noop) else 1 for p in pieces)
        self.reads = word.reads()
        self.uses_memory = word.uses_memory
        self.ops = tuple(ops)
        return self.ops


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
        #: the pipeline state between two words; the module docstring
        #: gives its layout
        self.pipe: List[int] = [-1, 0, -1, -1, 0]
        self._decode_cache: Dict[int, StepPlan] = {}  # address -> plan
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

    # ------------------------------------------------------------------
    # the decode cache
    # ------------------------------------------------------------------

    def step_plan(
        self, addr: int, bits: Optional[int] = None, word: Optional[InstructionWord] = None
    ) -> Optional[StepPlan]:
        """The decode-cache entry of the word at ``addr``.

        Given ``bits``, the cached plan when it holds those bits, else a
        new plan decoded from them (``IllegalInstruction`` when they do not
        decode).  Given ``word`` too, a new plan of that word: a loader
        seeds its own words, which keep their Load/Store notes.  Given
        neither, the plan cached at ``addr`` (the last word fetched or
        seeded there), or None.
        """
        cache = self._decode_cache
        if word is None:
            plan = cache.get(addr)
            if bits is None or (plan is not None and plan.bits == bits):
                return plan
            try:
                word = decode(bits, addr)
            except MachineFault:
                raise
            except Exception as exc:
                raise IllegalInstruction(f"undecodable word at {addr}: {bits:#010x}") from exc
        plan = cache[addr] = StepPlan(bits, word)
        return plan

    # ------------------------------------------------------------------
    # next-pc machinery
    # ------------------------------------------------------------------

    def upcoming_pcs(self, n: int = 3) -> List[int]:
        """The next ``n`` instruction addresses, honoring pending branches.

        The first entry is the current PC (the not-yet-executed
        instruction) -- exactly the restart sequence an exception must
        save (section 3.3: "the offending instruction, its successor,
        and then the target of the branch").
        """
        pcs: List[int] = []
        pc = self.pc
        due, later = self.pipe[2], self.pipe[3]
        for _ in range(n):
            pcs.append(pc)
            pc = due if due != -1 else pc + 1
            due, later = later, -1
        return pcs

    def _advance_pc(self, pc: int, branch: Optional[Tuple[int, int]]) -> None:
        """Compute the next PC after executing the word at ``pc``: the due
        target fires, the later one becomes due, and a taken transfer
        takes the slot its delay selects."""
        pipe = self.pipe
        next_pc = pipe[2]
        if next_pc == -1:
            next_pc = pc + 1
        pipe[2] = pipe[3]
        pipe[3] = -1

        if branch is not None:
            delay, target = branch
            if self.hazard_mode is HazardMode.INTERLOCKED:
                # hardware clears the pipe: slots squashed, delay charged
                self.stats.branch_flush_cycles += delay
                self.stats.cycles += delay
                if self.profiler is not None:
                    self.profiler.charge_flush(pc, delay)
                pipe[2] = -1
                next_pc = target
            else:
                # one delay slot: due after the next word; two: a word later
                pipe[1 + delay] = target

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
        self.pipe[2] = self.pipe[3] = -1
        # "the program counter is zeroed so that execution begins at the
        # start of the first physical page"
        self.pc = 0
        self.in_exception = True
        if observer is not None:
            observer(self, fault, pre[0], pre[1])

    def _apply_deferred(self) -> None:
        """Land the in-flight load, if any."""
        pipe = self.pipe
        if pipe[0] != -1:
            self.regs[pipe[0]] = pipe[1]
            pipe[0] = -1

    def _execute_at(self, pc: int) -> None:
        # ---- fetch: one translation, one memory read ---------------------
        # surprise bits: 1 supervisor, 4 overflow traps, 8 mapping; nothing
        # before the commit changes them
        sv = self.surprise.value
        if sv & 8:
            bits = self.memory.read(
                self.translate(pc), supervisor=bool(sv & 1), fetch=True, mapped=True
            )
        else:
            bits = self.memory.read(
                pc & 4294967295, supervisor=bool(sv & 1), fetch=True, mapped=False
            )
        plan = self._decode_cache.get(pc)
        if plan is None or plan.bits != bits:
            plan = self.step_plan(pc, bits)
        ops = plan.ops
        if ops is None:
            ops = plan.build(pc)

        # ---- hazard accounting against the in-flight load ---------------
        pipe = self.pipe
        in_flight = pipe[0]
        if in_flight != -1 and plan.reads >> in_flight & 1:
            if self.hazard_mode is HazardMode.CHECKED:
                raise HazardViolation(
                    f"word at {pc} reads r{in_flight} in a load delay slot: {plan.word!r}"
                )
            if self.hazard_mode is HazardMode.INTERLOCKED:
                # one stall cycle, then forward the loaded value
                self.stats.load_stalls += 1
                self.stats.cycles += 1
                if self.profiler is not None:
                    self.profiler.charge_stall(pc)
                self._apply_deferred()

        stats = self.stats
        stats.pieces += plan.pieces

        # ---- evaluate from pre-state -------------------------------------
        # Fault ordering: overflow / privilege checks happen before the
        # memory reference; the memory reference commits before any
        # register write (restartability, section 3.3).
        regs = self.regs
        dst = None  # the general register the word writes, with ``result``
        result = 0
        special = None  # (special register, value) the word writes
        branch: Optional[Tuple[int, int]] = None
        is_rfs = False
        trap_code: Optional[int] = None
        for op in ops:
            kind = op[0]
            if kind is _ALU:
                _, evaluate, a, b, dst, overflows, piece = op
                a = (regs[a] if a >= 0 else ~a) & 4294967295
                b = (regs[b] if b >= 0 else ~b) & 4294967295
                if sv & 4 and overflows is not None and overflows(a, b):
                    raise OverflowTrap(f"overflow in {piece!r}")
                result = evaluate(a, b)
            elif kind is _CONST:
                _, result, dst = op
            elif kind is _BRANCH:
                _, test, a, b, target = op
                stats.branches += 1
                if test(
                    (regs[a] if a >= 0 else ~a) & 4294967295,
                    (regs[b] if b >= 0 else ~b) & 4294967295,
                ):
                    stats.branches_taken += 1
                    branch = target
            elif kind is _NOOP:
                stats.noops += 1
            elif kind is _JUMP:
                stats.branches += 1
                stats.branches_taken += 1
                branch = op[1]
            elif kind is _SETCOND:
                _, test, a, b, dst = op
                result = 1 if test(
                    (regs[a] if a >= 0 else ~a) & 4294967295,
                    (regs[b] if b >= 0 else ~b) & 4294967295,
                ) else 0
            elif kind is _JUMPR:
                stats.branches += 1
                stats.branches_taken += 1
                branch = (op[1], regs[op[2]])
            elif kind is _INSERT:
                _, evaluate, a, dst = op
                result = evaluate(
                    (regs[a] if a >= 0 else ~a) & 4294967295,
                    self.lo & 4294967295,
                    regs[dst] & 4294967295,
                )
            elif kind is _TRAP:
                trap_code = op[1]
            elif kind is _RDSPEC:
                _, sreg, dst, privileged, piece = op
                if privileged and not sv & 1:
                    raise PrivilegeViolation(f"{piece!r} at user level")
                result = self._read_special(sreg)
            elif kind is _WRSPEC:
                _, sreg, a, privileged, piece = op
                if privileged and not sv & 1:
                    raise PrivilegeViolation(f"{piece!r} at user level")
                special = (sreg, regs[a] if a >= 0 else ~a)
            elif kind is _RFS:
                if not sv & 1:
                    raise PrivilegeViolation("rfs at user level")
                is_rfs = True
            else:
                raise IllegalInstruction(f"unexecutable piece {op[1]!r}")

        # ---- the memory reference (may fault; nothing written yet) -------
        mem = plan.mem
        load_dst = None
        if mem is not None:
            is_load, address, mode, number, note = mem
            addr = address(regs, mode)
            sysaddr = self.translate(addr) if sv & 8 else addr & 4294967295
            if is_load:
                loaded = self.memory.read(sysaddr, supervisor=bool(sv & 1), mapped=bool(sv & 8))
                load_dst = number
                stats.loads += 1
            else:
                self.memory.write(
                    sysaddr, regs[number], supervisor=bool(sv & 1), mapped=bool(sv & 8)
                )
                stats.stores += 1
            if note:
                stats.ref_notes[note] += 1

        # ---- commit --------------------------------------------------------
        # the previous word's in-flight load lands before this word's writes
        in_flight = pipe[0]
        if in_flight != -1:
            regs[in_flight] = pipe[1]
            pipe[0] = -1
        if dst is not None:
            regs[dst] = result
        if special is not None:
            self._write_special(*special)
        if load_dst is not None:
            if self.hazard_mode is HazardMode.INTERLOCKED:
                # forwarding hardware: the load value is usable immediately,
                # but remember it to charge the stall on next-word use
                regs[load_dst] = loaded
            pipe[0] = load_dst
            pipe[1] = loaded

        # ---- timing ----------------------------------------------------------
        stats.words += 1
        stats.cycles += 1
        profiler = self.profiler
        if profiler is not None:
            counts = profiler.counts
            counts[pc] = counts.get(pc, 0) + 1
        if plan.uses_memory:
            stats.memory_cycles_used += 1
        else:
            stats.free_memory_cycles += 1

        # ---- control flow -----------------------------------------------------
        if is_rfs:
            if profiler is not None:
                profiler.record_event("rfs", stats.words, pc)
            # the return sequence drains the pipe: the in-flight load (if
            # any) lands before the first resumed instruction issues
            self._apply_deferred()
            self.surprise.restore_previous()
            self.in_exception = False
            # the inverse of exception entry: xra1 is due after xra0 issues
            self.pc, pipe[2], pipe[3] = self.xra
            return

        if branch is not None or pipe[2] != -1 or pipe[3] != -1:
            self._advance_pc(pc, branch)
        else:
            self.pc = pc + 1

        if trap_code is not None:
            if profiler is not None:
                profiler.record_event("trap", stats.words, pc, trap_code)
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
