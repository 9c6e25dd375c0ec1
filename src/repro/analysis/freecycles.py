"""Free-memory-cycle measurement (paper section 3.1).

"Dynamic simulations indicated that the wasted bandwidth came close to
40% of the available bandwidth."  We run the corpus and report the
fraction of executed instruction words that used no data-memory cycle
-- the bandwidth the free-cycle pin exports -- plus the throughput a
:class:`~repro.system.dma.FreeCycleDma` engine achieves on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..compiler.codegen_mips import CompileOptions
from ..compiler.driver import compile_source
from ..reorg.reorganizer import OptLevel
from ..sim.machine import Machine

#: the paper's figure: wasted bandwidth "came close to 40%"
PAPER_FREE_FRACTION = 0.40


@dataclass
class FreeCycleReport:
    """Per-program and aggregate free-cycle fractions."""

    per_program: Dict[str, float]
    total_words: int
    total_free: int

    @property
    def aggregate_fraction(self) -> float:
        if self.total_words == 0:
            return 0.0
        return self.total_free / self.total_words


def measure(
    opt_level: OptLevel = OptLevel.BRANCH_DELAY,
    max_steps: int = 30_000_000,
    register_allocation: bool = True,
) -> FreeCycleReport:
    """Free-cycle fractions over the quick corpus.

    Packing *decreases* the free fraction (a packed word uses its
    memory slot more often), so the opt level matters; the default is
    full optimization, the machine the paper measured.  Turning
    ``register_allocation`` off approximates the memory-heavier code of
    the paper's era compiler.
    """
    from ..workloads import CORPUS, QUICK_PROGRAMS

    options = CompileOptions(register_allocation=register_allocation)
    per_program: Dict[str, float] = {}
    total_words = 0
    total_free = 0
    for name in QUICK_PROGRAMS:
        machine = Machine(compile_source(CORPUS[name], options, opt_level=opt_level).program)
        machine.run(max_steps)
        words = machine.stats.words
        free = machine.stats.free_memory_cycles
        per_program[name] = free / words if words else 0.0
        total_words += words
        total_free += free
    return FreeCycleReport(per_program, total_words, total_free)


def dma_throughput(source: str, transfer_words: int = 4096) -> Dict[str, float]:
    """Run one program with a free-cycle DMA transfer in flight.

    Returns the free fraction, the DMA words moved, and the words moved
    per executed instruction -- bandwidth recovered at zero cycle cost.
    """
    from ..system.dma import FreeCycleDma, run_with_dma

    compiled = compile_source(source)
    machine = Machine(compiled.program)
    dma = FreeCycleDma(machine.memory)
    # source and destination buffers parked far above the program
    dma.enqueue(source=0x100000, dest=0x140000, length=transfer_words)
    words, moved = run_with_dma(machine, dma)
    return {
        "instruction_words": words,
        "free_fraction": machine.stats.free_cycle_fraction,
        "dma_words_moved": moved,
        "dma_words_per_instruction": moved / words if words else 0.0,
    }
