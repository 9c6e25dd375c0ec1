"""The free-memory-cycles experiment (paper section 3.1).

Measures the fraction of the data-memory bandwidth the corpus leaves
idle -- the paper's "wasted bandwidth came close to 40%" -- and shows a
DMA engine recovering it at zero processor cost.
"""

from __future__ import annotations

from ..analysis.freecycles import PAPER_FREE_FRACTION, dma_throughput, measure
from ..reorg.reorganizer import OptLevel
from .base import ExperimentResult


def free_cycles() -> ExperimentResult:
    optimized = measure(opt_level=OptLevel.BRANCH_DELAY)
    no_regalloc = measure(opt_level=OptLevel.BRANCH_DELAY, register_allocation=False)
    from ..workloads import CORPUS

    dma = dma_throughput(CORPUS["wordcount"])
    rows = {
        "free fraction (optimized/packed code)": round(optimized.aggregate_fraction, 2),
        "free fraction (no register allocation)": round(no_regalloc.aggregate_fraction, 2),
        "per-program mean (no regalloc)": round(
            sum(no_regalloc.per_program.values()) / len(no_regalloc.per_program), 2
        ),
        "per-program min": round(min(no_regalloc.per_program.values()), 2),
        "per-program max": round(max(no_regalloc.per_program.values()), 2),
        "DMA words moved (wordcount run)": dma["dma_words_moved"],
        "DMA words per instruction": round(dma["dma_words_per_instruction"], 2),
    }
    paper = {"free fraction (no register allocation)": PAPER_FREE_FRACTION}
    return ExperimentResult(
        "Free cycles (section 3.1)",
        "Unused data-memory bandwidth exported on the free-cycle pin",
        rows,
        paper,
        notes=(
            "register allocation keeps more operands out of memory than the "
            "paper's compiler, so our free fraction is higher; the DMA engine "
            "demonstrates the recovered bandwidth either way"
        ),
    )
