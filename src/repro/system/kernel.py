"""The mini operating system: a ROM dispatch routine plus handlers,
written in MIPS assembly, exactly as the paper prescribes.

Section 3.3: "the program counter is zeroed so that execution begins at
the start of the first physical page.  The standard dispatch routine
that resides at address zero saves the return addresses, the surprise
register, and a small number of the general purpose registers....  the
dispatch routine looks at the saved surprise register to determine what
actually happened ... extracting from the top of the surprise register
the two exception cause fields, and using the fields as an index into a
jump table."

The kernel implements:

- **dispatch** at physical 0: saves ``r0``-``r7``, the three return
  addresses, and the surprise register; indexes the jump table by the
  major cause;
- **demand paging**: the page-fault handler allocates a frame, has the
  disk controller copy the backing page in, and installs the map entry;
  a fault with no pending map miss is an on-chip segmentation violation
  and kills the process ("the operating system then has the option of
  ... or terminating the offending process");
- **monitor calls** (software traps): halt, write-integer, write-char,
  read-integer, yield;
- **interrupts**: the global handler queries the external
  prioritization logic (the interrupt controller device) for the
  source;
- **context switching** between processes, round-robin on the timer;
  the on-chip segmentation means a switch only rewrites ``segpid``,
  never the page map (section 3.2: "most context switches do not
  require changes to the memory map").

The kernel source is a piece stream run through the same postpass
reorganizer as everything else -- the ROM is scheduled code, not magic.
The ROM depends only on the frame limit, so a process builds it once per
limit (:func:`build_kernel_program`, behind a small cache) and hands
every :class:`Kernel` its own copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

from ..asm.program import Program
from ..asm.assembler import assemble_pieces
from ..isa.addressing import segment_translator
from ..isa.bits import u32
from ..reorg.reorganizer import OptLevel, reorganize
from ..sim.cpu import Cpu, HazardMode
from ..sim.faults import ExceptionCause, Halted
from ..sim.memory import PhysicalMemory
from ..sim.surprise import SurpriseRegister
from .devices import (
    CONSOLE_CHAR,
    CONSOLE_IN,
    CONSOLE_INT,
    DEV_BASE,
    DISK_FRAME,
    DISK_PAGE,
    DISK_STORE,
    HALT,
    INT_SOURCE,
    INT_TIMER,
    OUT_PID,
    PM_ENTRY,
    PM_FAULT,
    PM_INDEX,
    PM_VICTIM,
    Console,
    DeviceBus,
    Disk,
    InterruptController,
)
from .mapping import ENTRY_VALID, PAGE_SHIFT, VICTIM_DIRTY, MappedMemory, PageMap

# ---------------------------------------------------------------------------
# physical memory layout
# ---------------------------------------------------------------------------

SAVE_AREA = 0x300      # r0..r7, surprise, xra0..xra2
SAVE_R = [SAVE_AREA + i for i in range(8)]
SAVE_SR = SAVE_AREA + 8
SAVE_X = [SAVE_AREA + 9 + i for i in range(3)]

KVARS = 0x310
KVAR_CURPID = KVARS + 0
KVAR_NEXTFRAME = KVARS + 1
KVAR_NPROCS = KVARS + 2

JUMPTABLE = 0x320       # 16 entries indexed by major cause

PROC_TABLE = 0x340      # 32-word entries
PROC_ENTRY_WORDS = 32
PROC_STATE = 20         # 0 empty, 1 runnable, 2 done
MAX_PROCESSES = 16

FIRST_FRAME = 16        # user frames start at physical 0x1000

#: on-chip segmentation: 4 masked bits -> 16 processes x 1M words
SEG_MASK_BITS = 4

#: initial user stack pointer, in the *top* region of the 32-bit space
USER_STACK_TOP = u32(-16)

# monitor call numbers (match the bare-metal Machine conventions)
SYS_EXIT = 0
SYS_WRITE_INT = 1
SYS_WRITE_CHAR = 2
SYS_READ_INT = 3
SYS_YIELD = 4

_CAUSE_HANDLERS = {
    1: "h_fatal",    # reset re-entry: not expected after boot
    2: "h_int",
    3: "h_trap",
    4: "h_kill",     # overflow
    5: "h_pf",
    6: "h_kill",     # privilege violation
    7: "h_kill",     # illegal instruction
    8: "h_kill",     # bus error
}


def _kernel_source(frame_limit: int) -> str:
    """The kernel, with the physical layout constants folded in.

    ``frame_limit`` is the first frame number beyond the allocatable
    pool; once the bump allocator reaches it, the page-fault handler
    evicts (clock victim, dirty write-back) instead of allocating.
    """
    save_r = "\n".join(f"        st r{i}, @{SAVE_R[i]}" for i in range(8))
    save_cur = "\n".join(
        f"        ld @{SAVE_R[i]}, r4\n        st r4, {i}(r3)" for i in range(8)
    )
    save_high = "\n".join(f"        st r{i}, {i}(r3)" for i in range(8, 16))
    load_cur = "\n".join(
        f"        ld {i}(r3), r4\n        st r4, @{SAVE_R[i]}" for i in range(8)
    )
    load_high = "\n".join(f"        ld {i}(r3), r{i}" for i in range(8, 16))
    restore_r = "\n".join(f"        ld @{SAVE_R[i]}, r{i}" for i in range(7, -1, -1))
    return f"""
dispatch:
{save_r}
        rdspec surprise, r1
        st r1, @{SAVE_SR}
        rdspec xra0, r2
        st r2, @{SAVE_X[0]}
        rdspec xra1, r2
        st r2, @{SAVE_X[1]}
        rdspec xra2, r2
        st r2, @{SAVE_X[2]}
        srl r1, #8, r3
        and r3, #15, r3
        lim {JUMPTABLE}, r4
        add r4, r3, r4
        ld 0(r4), r5
        jmpr r5

h_trap: ld @{SAVE_SR}, r1
        srl r1, #12, r1
        beq r1, #{SYS_EXIT}, h_kill
        beq r1, #{SYS_WRITE_INT}, t_wint
        beq r1, #{SYS_WRITE_CHAR}, t_wchar
        beq r1, #{SYS_READ_INT}, t_rint
        beq r1, #{SYS_YIELD}, c_switch
        jmp h_kill

t_wint: ld @{KVAR_CURPID}, r2
        st r2, @{OUT_PID}
        ld @{SAVE_R[1]}, r2
        st r2, @{CONSOLE_INT}
        jmp k_return

t_wchar:
        ld @{KVAR_CURPID}, r2
        st r2, @{OUT_PID}
        ld @{SAVE_R[1]}, r2
        st r2, @{CONSOLE_CHAR}
        jmp k_return

t_rint: ld @{CONSOLE_IN}, r2
        st r2, @{SAVE_R[1]}
        jmp k_return

h_int:  ld @{INT_SOURCE}, r1
        beq r1, #{INT_TIMER}, c_switch
        jmp k_return

h_pf:   ld @{PM_FAULT}, r1
        add r1, #1, r2
        beq r2, #0, h_kill
        srl r1, #{PAGE_SHIFT}, r2
        ld @{KVAR_NEXTFRAME}, r3
        lim {frame_limit}, r4
        blo r3, r4, pf_fresh
        ld @{PM_VICTIM}, r5
        lim {VICTIM_DIRTY}, r6
        and r5, r6, r7
        sub r5, r7, r5
        st r5, @{PM_INDEX}
        ld @{PM_ENTRY}, r3
        lim {ENTRY_VALID - 1}, r4
        and r3, r4, r3
        mov #0, r4
        st r4, @{PM_ENTRY}
        beq r7, #0, pf_load
        st r5, @{DISK_PAGE}
        st r3, @{DISK_STORE}
        jmp pf_load
pf_fresh:
        add r3, #1, r4
        st r4, @{KVAR_NEXTFRAME}
pf_load:
        st r2, @{DISK_PAGE}
        st r3, @{DISK_FRAME}
        st r2, @{PM_INDEX}
        lim {ENTRY_VALID}, r5
        or r3, r5, r5
        st r5, @{PM_ENTRY}
        jmp k_return

h_kill: ld @{KVAR_CURPID}, r1
        sll r1, #5, r2
        lim {PROC_TABLE}, r3
        add r3, r2, r3
        mov #2, r4
        st r4, {PROC_STATE}(r3)
        jmp schedule

c_switch:
        ld @{KVAR_CURPID}, r1
        sll r1, #5, r2
        lim {PROC_TABLE}, r3
        add r3, r2, r3
{save_cur}
{save_high}
        ld @{SAVE_SR}, r4
        st r4, 16(r3)
        ld @{SAVE_X[0]}, r4
        st r4, 17(r3)
        ld @{SAVE_X[1]}, r4
        st r4, 18(r3)
        ld @{SAVE_X[2]}, r4
        st r4, 19(r3)
        jmp schedule

schedule:
        ld @{KVAR_CURPID}, r1
        ld @{KVAR_NPROCS}, r5
        mov r5, r6
sched_loop:
        beq r6, #0, all_done
        add r1, #1, r1
        blo r1, r5, sched_ok
        mov #0, r1
sched_ok:
        sll r1, #5, r2
        lim {PROC_TABLE}, r3
        add r3, r2, r3
        ld {PROC_STATE}(r3), r4
        beq r4, #1, sched_found
        sub r6, #1, r6
        jmp sched_loop

sched_found:
        st r1, @{KVAR_CURPID}
        wrspec r1, segpid
{load_cur}
        ld 16(r3), r4
        st r4, @{SAVE_SR}
        ld 17(r3), r4
        st r4, @{SAVE_X[0]}
        ld 18(r3), r4
        st r4, @{SAVE_X[1]}
        ld 19(r3), r4
        st r4, @{SAVE_X[2]}
{load_high}
        jmp k_return

all_done:
        st r0, @{HALT}
        jmp all_done

h_fatal:
        st r0, @{HALT}
        jmp h_fatal

k_return:
        ld @{SAVE_X[0]}, r1
        wrspec r1, xra0
        ld @{SAVE_X[1]}, r1
        wrspec r1, xra1
        ld @{SAVE_X[2]}, r1
        wrspec r1, xra2
        ld @{SAVE_SR}, r1
        wrspec r1, surprise
{restore_r}
        rfs
"""


def build_kernel_program(frame_limit: int = 1 << 19) -> Program:
    """Assemble and reorganize the kernel ROM through the standard
    toolchain -- a fresh build on every call.  :class:`Kernel` takes its
    ROM from :func:`_kernel_rom` instead, which builds through this
    function once per frame limit."""
    stream = assemble_pieces(_kernel_source(frame_limit))
    result = reorganize(stream, OptLevel.BRANCH_DELAY)
    program = result.to_program(org=0, entry_symbol="dispatch")
    if program.code_size > SAVE_AREA:
        raise RuntimeError(
            f"kernel ROM ({program.code_size} words) overruns its region"
        )
    return program


@lru_cache(maxsize=16)
def _built_rom(frame_limit: int) -> Program:
    """The one build of each frame limit's ROM; never handed out."""
    return build_kernel_program(frame_limit)


def _kernel_rom(frame_limit: int) -> Program:
    """A kernel's own copy of the ROM for ``frame_limit``: fresh
    ``memory``, ``instructions`` and ``symbols`` maps over the cached
    build, so no kernel sees another's changes to its program."""
    rom = _built_rom(frame_limit)
    return Program(
        memory=dict(rom.memory),
        instructions=dict(rom.instructions),
        symbols=dict(rom.symbols),
        entry=rom.entry,
    )


# ---------------------------------------------------------------------------
# processes and the machine harness
# ---------------------------------------------------------------------------


@dataclass
class Process:
    """Bookkeeping for one user process."""

    pid: int
    program: Program
    state: str = "runnable"


def _initial_saved_surprise() -> int:
    """The surprise value saved for a not-yet-run process.

    Current state: supervisor (the kernel is running when this value is
    live); previous state: user, interrupts on, mapping on, overflow
    traps on -- what ``rfs`` installs when the process first runs.
    """
    sr = SurpriseRegister()
    sr.supervisor = False
    sr.interrupts_enabled = True
    sr.mapping_enabled = True
    sr.overflow_traps_enabled = True
    sr.enter_exception(ExceptionCause.NONE, 0)
    return sr.value


_INITIAL_SAVED_SURPRISE = _initial_saved_surprise()


class Kernel:
    """Boots the machine: ROM + devices + processes, then runs it."""

    def __init__(
        self,
        memory_size: int = 1 << 22,
        quantum: int = 0,
        hazard_mode: HazardMode = HazardMode.BARE,
        inputs: Optional[List[int]] = None,
        max_frames: Optional[int] = None,
    ):
        """``max_frames`` caps the user frame pool; once exhausted the
        page-fault handler evicts with the clock algorithm instead of
        allocating (demand paging with replacement).  The pool's end is
        the ROM's frame limit; :attr:`kernel_program` is this kernel's
        own copy of the ROM built for it (built once per limit per
        process, see :func:`_kernel_rom`)."""
        self.physical = PhysicalMemory(memory_size)
        self.pagemap = PageMap()
        self.memory = MappedMemory(self.physical, self.pagemap)
        self.console = Console(inputs=list(inputs or []))
        self.disk = Disk(self.physical)
        self.interrupts = InterruptController()
        self.memory.devices = DeviceBus(
            self.console, self.pagemap, self.disk, self.interrupts
        )
        self.cpu = Cpu(self.memory, hazard_mode=hazard_mode, vectored_exceptions=True)
        self.interrupts.attach(self._clear_interrupt_line)
        self.quantum = quantum
        pool_end = min(memory_size, DEV_BASE) >> PAGE_SHIFT
        if max_frames is not None:
            pool_end = min(pool_end, FIRST_FRAME + max_frames)
        self.frame_limit = pool_end
        self.kernel_program = _kernel_rom(pool_end)
        self.processes: List[Process] = []
        self.booted = False
        self.halted = False
        self.steps_run = 0
        #: cycle count at which the next quantum interrupt fires
        self._next_timer = 0
        #: word count below which the timer line stays quiet -- the
        #: chaos engine's "device stall" injection parks this in the
        #: future and recovery is the scheduler resuming preemption
        self._timer_stall_until = 0

    def _clear_interrupt_line(self) -> None:
        self.cpu.interrupt_line = False

    # -- setup ---------------------------------------------------------------

    def add_process(self, program: Program) -> Process:
        if len(self.processes) >= MAX_PROCESSES:
            raise RuntimeError("process table full")
        process = Process(len(self.processes), program)
        self.processes.append(process)
        return process

    def boot(self) -> None:
        """Install the ROM, the jump table, and the process table."""
        if not self.processes:
            raise RuntimeError("no processes to run")
        self.physical.load_image(self.kernel_program.memory)
        for cause in range(16):
            handler = _CAUSE_HANDLERS.get(cause, "h_fatal")
            self.physical.poke(JUMPTABLE + cause, self.kernel_program.symbol(handler))
        self.physical.poke(KVAR_CURPID, len(self.processes) - 1)
        self.physical.poke(KVAR_NEXTFRAME, FIRST_FRAME)
        self.physical.poke(KVAR_NPROCS, len(self.processes))

        for process in self.processes:
            self.disk.register_image(
                segment_translator(process.pid, SEG_MASK_BITS), process.program.memory
            )
            entry_base = PROC_TABLE + process.pid * PROC_ENTRY_WORDS
            for i in range(16):
                self.physical.poke(entry_base + i, 0)
            self.physical.poke(entry_base + 14, USER_STACK_TOP)  # sp
            self.physical.poke(entry_base + 16, _INITIAL_SAVED_SURPRISE)
            entry = process.program.entry
            self.physical.poke(entry_base + 17, entry)
            self.physical.poke(entry_base + 18, entry + 1)
            self.physical.poke(entry_base + 19, entry + 2)
            self.physical.poke(entry_base + PROC_STATE, 1)

        # the CPU wakes in the kernel, about to schedule process 0
        self.cpu.seg_mask = SEG_MASK_BITS
        self.cpu.surprise.value = 1  # supervisor; everything else off
        self.cpu.pc = self.kernel_program.symbol("schedule")
        self._next_timer = self.quantum
        self.booted = True

    # -- running -----------------------------------------------------------------

    def run(self, max_steps: int = 20_000_000, fast: bool = True) -> None:
        """Run until every process exits (the kernel halts the machine).

        ``fast=True`` batches execution, the kernel's and the user
        processes' alike, through the threaded-code engine
        (:mod:`repro.sim.fastpath`); only faults, traps, interrupts,
        ``rfs`` and device accesses take reference steps.  The timer
        stays exact under batching: the engine is bounded by
        ``cycle_limit`` and fast words are one cycle each, so the
        interrupt is raised at the same step boundary the per-step loop
        (retained under ``fast=False``) would have used.
        """
        self.run_steps(max_steps, fast=fast)
        if not self.halted:
            raise TimeoutError(f"kernel did not finish within {max_steps} steps")

    def run_steps(self, budget: int, fast: bool = True) -> int:
        """Execute at most ``budget`` instruction words; returns the count.

        Stops early when the kernel halts the machine (setting
        :attr:`halted`).  Timer state persists across calls, so chunked
        execution delivers quantum interrupts at exactly the step
        boundaries a single :meth:`run` would -- the resumable primitive
        the chaos engine pauses on between injections.
        """
        if not self.booted:
            self.boot()
        engine = self.cpu.fastpath() if fast else None
        stats = self.cpu.stats
        done = 0
        try:
            while done < budget:
                if (
                    self.quantum
                    and stats.cycles >= self._next_timer
                    and stats.words >= self._timer_stall_until
                ):
                    self.interrupts.raise_source(INT_TIMER)
                    self.cpu.interrupt_line = True
                    self._next_timer = stats.cycles + self.quantum
                if engine is not None:
                    limit = self._next_timer if self.quantum else None
                    chunk = budget - done
                    if self.quantum and stats.words < self._timer_stall_until:
                        # stalled timer: the line is quiet, so run flat
                        # out -- but only to the stall's expiry, so both
                        # engines observe the deferred interrupt at the
                        # identical word boundary
                        limit = None
                        chunk = min(chunk, self._timer_stall_until - stats.words)
                    done += engine.run(chunk, cycle_limit=limit)
                else:
                    self.cpu.step()
                    done += 1
        except Halted:
            if engine is not None:
                done += engine.last_run_steps
            self.halted = True
        finally:
            self.steps_run += done
        return done

    # -- results -------------------------------------------------------------------

    def counter_groups(self):
        """Observability counter groups, including page-map traffic.

        The ``system`` group picks up this kernel's live page-map
        statistics.  The per-PC-derived groups (``mix``, ``immediates``
        and the per-PC parts of ``control``) stay empty even with a
        profiler attached: each process runs at virtual PCs that collide
        with the other processes' and with the kernel's physical PCs, so
        a PC names no single word.  The profiler's own per-PC counts and
        event ring are exact.
        """
        from ..perf.counters import collect

        return collect(self.cpu, pagemap=self.pagemap)

    def output(self, pid: int) -> List[int]:
        return self.console.outputs.get(pid, [])

    def output_text(self, pid: int) -> str:
        return self.console.text(pid)

    def process_state(self, pid: int) -> int:
        return self.physical.peek(PROC_TABLE + pid * PROC_ENTRY_WORDS + PROC_STATE)
