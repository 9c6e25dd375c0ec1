"""Piece streams, basic blocks, the control-flow graph, and liveness.

The reorganizer's unit of work is the basic block ("All code
reorganization is done on a basic block basis", section 4.2.1), but the
branch-delay optimization needs a little global knowledge: which
registers are live into each successor block (the paper's Figure 4
moves an instruction into a delay slot because "r2 is 'dead' outside of
the section shown").  This module provides that knowledge with a
classic backward dataflow over the block graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..isa.pieces import CompareBranch, Jump, JumpIndirect, Piece, Trap
from ..isa.registers import ALL_REGISTERS, Reg

#: a piece possibly carrying a label ("entry point" marker)
LabeledPiece = Tuple[Optional[str], Piece]


@dataclass
class BasicBlock:
    """A maximal straight-line piece sequence.

    ``flow`` is the block's terminating flow piece, if any (kept out of
    ``body``); blocks without one fall through to ``fallthrough``.
    """

    index: int
    label: Optional[str]
    body: List[Piece]
    flow: Optional[Piece] = None
    #: label of the taken-branch target (None for indirect/fallthrough)
    target_label: Optional[str] = None
    #: index of the next block in layout order (fall-through), if reachable
    fallthrough: Optional[int] = None

    @property
    def pieces(self) -> List[Piece]:
        """Body plus the flow piece."""
        return self.body + ([self.flow] if self.flow is not None else [])

    @property
    def falls_through(self) -> bool:
        """True when control can reach the next block in layout order.

        A conditional branch falls through on the not-taken outcome; an
        unconditional jump or an indirect jump does not.
        """
        if self.flow is None:
            return True
        if isinstance(self.flow, CompareBranch):
            return True  # not-taken path
        return False


def split_blocks(stream: Sequence[LabeledPiece]) -> List[BasicBlock]:
    """Partition a labeled piece stream into basic blocks.

    Leaders: the first piece, every labeled piece.  A flow piece (plus
    nothing -- delay slots do not exist yet at the piece level)
    terminates its block.
    """
    blocks: List[BasicBlock] = []
    current_label: Optional[str] = None
    body: List[Piece] = []

    def finish(flow: Optional[Piece] = None) -> None:
        nonlocal body, current_label
        if not body and flow is None and current_label is None:
            return
        target = None
        if isinstance(flow, (CompareBranch, Jump)) and isinstance(flow.target, str):
            target = flow.target
        blocks.append(
            BasicBlock(len(blocks), current_label, body, flow, target_label=target)
        )
        body = []
        current_label = None

    for label, piece in stream:
        if label is not None:
            finish()
            current_label = label
        if piece.is_flow:
            flow = piece
            blocks.append(
                BasicBlock(
                    len(blocks),
                    current_label,
                    body,
                    flow,
                    target_label=(
                        flow.target
                        if isinstance(flow, (CompareBranch, Jump))
                        and isinstance(flow.target, str)
                        else None
                    ),
                )
            )
            body = []
            current_label = None
        else:
            body.append(piece)
    finish()

    for block in blocks:
        if block.falls_through and block.index + 1 < len(blocks):
            block.fallthrough = block.index + 1
    return blocks


@dataclass
class FlowGraph:
    """Blocks plus label resolution and successor/predecessor maps."""

    blocks: List[BasicBlock]
    by_label: Dict[str, int] = field(default_factory=dict)
    successors: Dict[int, List[int]] = field(default_factory=dict)
    predecessors: Dict[int, List[int]] = field(default_factory=dict)

    @classmethod
    def build(cls, stream: Sequence[LabeledPiece]) -> "FlowGraph":
        blocks = split_blocks(stream)
        graph = cls(blocks)
        for block in blocks:
            if block.label is not None:
                graph.by_label[block.label] = block.index
        for block in blocks:
            succs: List[int] = []
            if block.target_label is not None and block.target_label in graph.by_label:
                succs.append(graph.by_label[block.target_label])
            if block.fallthrough is not None:
                succs.append(block.fallthrough)
            if isinstance(block.flow, JumpIndirect):
                # unknown targets: treated as exiting the stream
                pass
            graph.successors[block.index] = succs
            for s in succs:
                graph.predecessors.setdefault(s, []).append(block.index)
        for block in blocks:
            graph.predecessors.setdefault(block.index, [])
        return graph

    def taken_successor(self, block: BasicBlock) -> Optional[int]:
        if block.target_label is not None:
            return self.by_label.get(block.target_label)
        return None


def block_use_def(block: BasicBlock) -> Tuple[Set[Reg], Set[Reg]]:
    """(use, def): registers read before written / written in the block."""
    uses: Set[Reg] = set()
    defs: Set[Reg] = set()
    for piece in block.pieces:
        uses |= piece.reads() - defs
        defs |= piece.writes()
    return uses, defs


def liveness(graph: FlowGraph) -> Dict[int, FrozenSet[Reg]]:
    """Live-in register sets per block (backward dataflow to a fixpoint).

    Blocks with unknown successors (indirect jumps, traps, stream exits)
    conservatively treat **all** registers as live out.
    """
    all_regs = frozenset(ALL_REGISTERS)
    use: Dict[int, Set[Reg]] = {}
    defs: Dict[int, Set[Reg]] = {}
    for block in graph.blocks:
        use[block.index], defs[block.index] = block_use_def(block)

    live_in: Dict[int, Set[Reg]] = {b.index: set() for b in graph.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(graph.blocks):
            succs = graph.successors[block.index]
            exits_stream = (
                not succs
                or isinstance(block.flow, (JumpIndirect, Trap))
                or (
                    block.target_label is not None
                    and block.target_label not in graph.by_label
                )
            )
            live_out: Set[Reg] = set(all_regs) if exits_stream else set()
            for s in succs:
                live_out |= live_in[s]
            new_in = use[block.index] | (live_out - defs[block.index])
            if new_in != live_in[block.index]:
                live_in[block.index] = new_in
                changed = True
    return {index: frozenset(regs) for index, regs in live_in.items()}
