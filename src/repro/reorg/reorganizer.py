"""The postpass reorganizer: the paper's software pipeline interlocks.

"The current scheme provides the reorganization as a post-processing of
the code generator's output.  This reorganizer performs several major
functions: 1. It takes the pipeline constraints into account and
reorganizes the code to avoid interlocks when possible, and otherwise
inserts no-ops.  2. It packs instruction pieces into one 32-bit word.
3. It assembles instructions." (section 4.2.1)

The cumulative optimization levels are exactly Table 11's rows:

=================  ====================================================
``NONE``           source order, one piece per word, no-ops inserted
``REORGANIZE``     DAG scheduling to avoid no-ops
``PACK``           + pack pieces into shared words
``BRANCH_DELAY``   + fill branch delay slots (three schemes)
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..asm.program import Program
from ..isa.pieces import CompareBranch, Jump, LoadImm, LoadLabel, Piece
from ..isa.words import InstructionWord
from .blocks import FlowGraph, LabeledPiece
from .branch_delay import DelayFillStats, DelaySlotFiller
from .scheduler import ScheduledBlock, naive_block, schedule_block, violates_load_delay


class OptLevel(Enum):
    """Cumulative optimization levels (Table 11 rows)."""

    NONE = "none"
    REORGANIZE = "reorganize"
    PACK = "pack"
    BRANCH_DELAY = "branch-delay"

    @property
    def reorders(self) -> bool:
        return self is not OptLevel.NONE

    @property
    def packs(self) -> bool:
        return self in (OptLevel.PACK, OptLevel.BRANCH_DELAY)

    @property
    def fills_delay_slots(self) -> bool:
        return self is OptLevel.BRANCH_DELAY


#: Table 11 row order
ALL_LEVELS = [OptLevel.NONE, OptLevel.REORGANIZE, OptLevel.PACK, OptLevel.BRANCH_DELAY]


@dataclass
class ReorgResult:
    """The reorganized program: labeled instruction words."""

    level: OptLevel
    words: List[Tuple[List[str], InstructionWord]]
    fill_stats: Optional[DelayFillStats] = None

    @property
    def static_count(self) -> int:
        """The Table 11 metric: static instruction words, no-ops included."""
        return len(self.words)

    @property
    def noop_count(self) -> int:
        return sum(1 for _, word in self.words if word.is_nop)

    @property
    def packed_count(self) -> int:
        return sum(1 for _, word in self.words if word.is_packed)

    def to_program(self, org: int = 0, entry_symbol: Optional[str] = None) -> Program:
        """Resolve labels and encode into a runnable program image."""
        symbols: Dict[str, int] = {}
        for offset, (labels, _word) in enumerate(self.words):
            for label in labels:
                symbols[label] = org + offset
        program = Program(symbols=dict(symbols))
        for offset, (labels, word) in enumerate(self.words):
            addr = org + offset
            program.place_word(addr, _resolve_word(word, symbols))
        if entry_symbol and entry_symbol in symbols:
            program.entry = symbols[entry_symbol]
        else:
            program.entry = org
        return program

    def listing(self) -> str:
        lines = []
        for offset, (labels, word) in enumerate(self.words):
            prefix = ",".join(labels)
            lines.append(f"{offset:5d}  {prefix + ':' if prefix else '':14s}{word!r}")
        return "\n".join(lines)


def _resolve_word(word: InstructionWord, symbols: Dict[str, int]) -> InstructionWord:
    def resolve_piece(piece: Piece) -> Piece:
        if isinstance(piece, CompareBranch) and isinstance(piece.target, str):
            return CompareBranch(piece.cond, piece.s1, piece.s2, symbols[piece.target])
        if isinstance(piece, Jump) and isinstance(piece.target, str):
            return Jump(symbols[piece.target], piece.link)
        if isinstance(piece, LoadLabel):
            return LoadImm(symbols[piece.label], piece.dst)
        return piece

    if word.is_packed:
        assert word.mem is not None and word.alu is not None
        return InstructionWord.packed(resolve_piece(word.mem), resolve_piece(word.alu))
    return InstructionWord.single(resolve_piece(word.pieces[0]))


def reorganize(
    stream: Sequence[LabeledPiece],
    level: OptLevel = OptLevel.BRANCH_DELAY,
    allow_speculative_loads: bool = True,
) -> ReorgResult:
    """Run the reorganizer over a labeled piece stream."""
    graph = FlowGraph.build(list(stream))

    scheduled: List[ScheduledBlock] = []
    for block in graph.blocks:
        if level.reorders:
            scheduled.append(schedule_block(block, reorder=True, pack=level.packs))
        else:
            scheduled.append(naive_block(block))

    fill_stats: Optional[DelayFillStats] = None
    split_labels: Dict[str, Tuple[int, int]] = {}
    if level.fills_delay_slots:
        filler = DelaySlotFiller(
            graph, scheduled, allow_speculative_loads=allow_speculative_loads
        )
        fill_stats = filler.fill()
        split_labels = filler.split_labels

    # linearize: attach labels (block labels, loop-rotation split labels)
    splits_by_block: Dict[int, List[Tuple[int, str]]] = {}
    for label, (block_index, offset) in split_labels.items():
        splits_by_block.setdefault(block_index, []).append((offset, label))

    words: List[Tuple[List[str], InstructionWord]] = []
    pending_labels: List[str] = []
    for sb in scheduled:
        block_labels = ([sb.block.label] if sb.block.label else []) + pending_labels
        pending_labels = []
        split_here = dict()
        for offset, label in splits_by_block.get(sb.block.index, []):
            split_here.setdefault(offset, []).append(label)
        if not sb.words:
            pending_labels = block_labels
            continue
        for offset, word in enumerate(sb.words):
            labels = list(split_here.get(offset, []))
            if offset == 0:
                labels = block_labels + labels
            words.append((labels, word))
    if pending_labels:
        # trailing labels land on an appended no-op so they stay resolvable
        words.append((pending_labels, InstructionWord.nop()))

    # cross-block fixup: a block may end with a load whose destination
    # the (fall-through) next word reads; insert the unavoidable no-op
    fixed: List[Tuple[List[str], InstructionWord]] = []
    for labels, word in words:
        if fixed and violates_load_delay(word, fixed[-1][1]):
            fixed.append(([], InstructionWord.nop()))
        fixed.append((labels, word))

    return ReorgResult(level, fixed, fill_stats)


def reorganize_all_levels(
    stream: Sequence[LabeledPiece],
) -> Dict[OptLevel, ReorgResult]:
    """Run every Table 11 level over the same stream."""
    return {level: reorganize(stream, level) for level in ALL_LEVELS}
