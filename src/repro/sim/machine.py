"""Bare-metal machine: program + CPU + memory + runtime services.

:class:`Machine` is the convenience harness used by tests, benchmarks
and examples when the full operating system of :mod:`repro.system` is
not needed.  It loads an assembled :class:`~repro.asm.program.Program`,
points the PC at its entry, gives it a stack, and services the runtime
trap conventions:

=======  =====================================================
trap     service
=======  =====================================================
``#0``   halt
``#1``   write the integer in ``r1`` to the output stream
``#2``   write the character in the low byte of ``r1``
``#3``   read an integer from the input queue into ``r1``
=======  =====================================================

Programs that need the real exception machinery (demand paging, context
switches) run under :class:`repro.system.kernel.Kernel` instead, where
traps vector through the surprise sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from ..asm.program import Program
from ..isa.bits import s32
from ..isa.registers import SP
from .cpu import Cpu, CpuStats, HazardMode
from .faults import Halted
from .memory import PhysicalMemory

TRAP_HALT = 0
TRAP_WRITE_INT = 1
TRAP_WRITE_CHAR = 2
TRAP_READ_INT = 3

DEFAULT_STACK_TOP = (1 << 20) - 1


class Machine:
    """A loaded program ready to run on the bare CPU."""

    def __init__(
        self,
        program: Program,
        hazard_mode: HazardMode = HazardMode.BARE,
        memory_size: int = 1 << 22,
        stack_top: int = DEFAULT_STACK_TOP,
        inputs: Optional[Iterable[int]] = None,
    ):
        self.program = program
        self.memory = PhysicalMemory(memory_size)
        self.memory.load_image(program.memory)
        self.cpu = Cpu(self.memory, hazard_mode=hazard_mode)
        # seed the decode cache with the program's own InstructionWord
        # objects so analysis notes on Load/Store pieces survive
        for addr, word in program.instructions.items():
            self.cpu._decode_cache[addr] = (program.memory[addr], word)
        self.cpu.pc = program.entry
        self.cpu.regs[SP.number] = stack_top
        self.cpu.trap_hook = self._service_trap
        self.output: List[int] = []
        self.char_output: List[str] = []
        # a deque: trap #3 consumes from the front, and popleft is O(1)
        # where list.pop(0) shifts the whole queue
        self.inputs: Deque[int] = deque(inputs or [])
        self.halted = False

    # -- trap services -----------------------------------------------------

    def _service_trap(self, cpu: Cpu, code: int) -> bool:
        if code == TRAP_HALT:
            self.halted = True
            raise Halted()
        if code == TRAP_WRITE_INT:
            self.output.append(s32(cpu.regs[1]))
            return True
        if code == TRAP_WRITE_CHAR:
            self.char_output.append(chr(cpu.regs[1] & 0xFF))
            return True
        if code == TRAP_READ_INT:
            cpu.regs[1] = self.inputs.popleft() & 0xFFFFFFFF if self.inputs else 0
            return True
        return False

    # -- running --------------------------------------------------------------

    def run(self, max_steps: int = 5_000_000, fast: bool = True) -> CpuStats:
        """Run until the program halts (trap #0); returns CPU statistics.

        ``fast=True`` drives the threaded-code engine
        (:mod:`repro.sim.fastpath`), which batches execution and only
        falls back to the reference stepper on traps, faults, and
        interlock events -- behaviour and statistics are bit-identical
        to the per-step loop, which ``fast=False`` retains.

        Raises :class:`TimeoutError` when the step budget is exhausted
        -- runaway programs are bugs, and tests should see them.
        """
        self.run_steps(max_steps, fast=fast)
        if not self.halted:
            raise TimeoutError(f"program did not halt within {max_steps} steps")
        return self.cpu.stats

    def run_steps(self, budget: int, fast: bool = True) -> int:
        """Execute at most ``budget`` instruction words; returns the count.

        Stops early on halt (trap #0), setting :attr:`halted`.  This is
        the resumable primitive under :meth:`run`; the chaos engine uses
        it to pause execution at exact step boundaries between
        injections.  Fast and precise engines count identically, so a
        given budget lands both at the same architectural state.
        """
        done = 0
        if fast:
            engine = self.cpu.fastpath()
            while done < budget:
                try:
                    done += engine.run(budget - done)
                except Halted:
                    done += engine.last_run_steps
                    break
            return done
        while done < budget:
            try:
                self.cpu.step()
            except Halted:
                break
            done += 1
        return done

    @property
    def stats(self) -> CpuStats:
        return self.cpu.stats

    def counter_groups(self):
        """The observability counter groups for this machine's run.

        Per-PC-derived groups (mix, immediates, control) need a
        :class:`~repro.perf.profiler.Profiler` attached before running.
        """
        from ..perf.counters import collect

        return collect(self.cpu)

    @property
    def output_text(self) -> str:
        """Characters written via trap #2, as a string."""
        return "".join(self.char_output)

    def word_at(self, symbol_or_addr) -> int:
        """Read a data word by symbol name or address (signed view)."""
        addr = (
            self.program.symbol(symbol_or_addr)
            if isinstance(symbol_or_addr, str)
            else symbol_or_addr
        )
        return s32(self.memory.peek(addr))


def run_source(
    source: str,
    hazard_mode: HazardMode = HazardMode.BARE,
    inputs: Optional[Iterable[int]] = None,
    max_steps: int = 5_000_000,
) -> Machine:
    """Assemble and run assembly source; returns the finished machine."""
    from ..asm.assembler import assemble

    machine = Machine(assemble(source), hazard_mode=hazard_mode, inputs=inputs)
    machine.run(max_steps)
    return machine
