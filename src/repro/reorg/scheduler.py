"""Interlock-aware list scheduling + instruction packing for one block.

The paper's algorithm (section 4.2.1):

1. read a basic block, build the machine-level DAG;
2. from the instructions generated so far, determine the sets of
   instructions that can be generated next;
3. eliminate any sets that cannot be started immediately (pipeline
   constraints: the load delay, the flow-piece barrier);
4. if there are no sets left, emit a no-op and return to step 2;
   otherwise choose heuristically -- "an instruction that fits in a
   hole in a nonfull instruction is preferred; this provides the
   instruction packing."

Step 2 is kept incrementally rather than recomputed from the DAG for
every word.  Each node carries a count of its unplaced predecessors and
the earliest word those already placed allow it in; placing a node (a
word's primary piece or its packing partner) updates both for its
successors only.  A node whose count reaches zero joins the *released*
list, kept in source order, and the nodes generable in the current word
are the released ones whose earliest word has come.  Step 3's load-delay
and barrier constraints are exactly those earliest words, so one filter
over the released list does steps 2 and 3 together.

``pack`` separates Table 11's "Reorganize" level (one piece per word)
from "Pack" (fill the second slot of the current word).  The "None"
level does not schedule at all: :func:`naive_block` keeps source order
and inserts a no-op wherever a load's consumer follows it directly.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.pieces import Noop, Piece
from ..isa.words import InstructionWord, can_pack, packable_form
from .blocks import BasicBlock
from .dag import DependenceDag


@dataclass
class ScheduledBlock:
    """A block after scheduling: words, with the flow word position noted.

    The trailing ``delay_slots`` words (no-ops until the branch-delay
    optimizer fills them) follow ``flow_pos``.
    """

    block: BasicBlock
    words: List[InstructionWord]
    flow_pos: Optional[int] = None

    @property
    def label(self) -> Optional[str]:
        return self.block.label

    @property
    def static_count(self) -> int:
        return len(self.words)


def violates_load_delay(word: InstructionWord, previous: Optional[InstructionWord]) -> bool:
    """True when ``word`` reads a register the previous word is loading."""
    if previous is None or previous.mem is None or not previous.mem.is_load:
        return False
    return bool(word.reads() & previous.mem.writes())


def schedule_block(block: BasicBlock, *, pack: bool = True) -> ScheduledBlock:
    """Schedule one basic block into instruction words.

    Each word takes the generable piece of highest priority (the DAG's
    height, memory pieces first among equals, then source order) and,
    with ``pack``, an independent partner for its other slot; a word in
    which nothing is generable is a no-op.  The delay-slot words after
    the flow piece are no-ops, left for the branch-delay filler.
    """
    pieces = block.pieces
    if not pieces:
        return ScheduledBlock(block, [], None)

    dag = DependenceDag(pieces)
    nodes = dag.nodes
    #: per node: predecessors not yet placed
    waiting = [len(node.preds) for node in nodes]
    #: per node: the earliest word its placed predecessors allow it in
    earliest = [0] * len(nodes)
    #: unplaced nodes whose predecessors are all placed, in index order;
    #: empty only once every node is placed (the graph is acyclic)
    released = [node.index for node in nodes if not node.preds]
    words: List[InstructionWord] = []
    flow_pos: Optional[int] = None
    time = 0

    def place(index: int) -> None:
        released.remove(index)
        for succ, dist in nodes[index].succs.items():
            if earliest[succ] < time + dist:
                earliest[succ] = time + dist
            waiting[succ] -= 1
            if not waiting[succ]:
                insort(released, succ)

    def ready_nodes() -> List[int]:
        return [index for index in released if earliest[index] <= time]

    #: the reordering priority: highest critical path first; memory
    #: pieces break ties (they open a packing hole); then source order
    #: for determinism
    rank = [(node.height, node.piece.is_memory, -node.index) for node in nodes]

    def independent(a: int, b: int) -> bool:
        """No ordering edge of distance >= 1 between the two nodes."""
        ab = nodes[a].succs.get(b)
        ba = nodes[b].succs.get(a)
        return (ab is None or ab == 0) and (ba is None or ba == 0)

    while released:
        candidates = ready_nodes()
        if not candidates:
            words.append(InstructionWord.nop())
            time += 1
            continue

        primary = max(candidates, key=rank.__getitem__)
        primary_piece = pieces[primary]
        place(primary)

        partner: Optional[int] = None
        if pack and not primary_piece.is_flow and not isinstance(primary_piece, Noop):
            # placing the primary may have released a distance-0
            # (anti-dependent) partner for the same word
            partner_candidates = ready_nodes()
            best: Optional[Tuple[int, int, Piece, Piece]] = None
            for c in partner_candidates:
                piece = pieces[c]
                if piece.is_flow or isinstance(piece, Noop):
                    continue
                if not independent(primary, c):
                    continue
                if primary_piece.is_memory and not piece.is_memory:
                    mem, alu = primary_piece, piece
                elif piece.is_memory and not primary_piece.is_memory:
                    mem, alu = piece, primary_piece
                else:
                    continue
                # the packer may rewrite the ALU piece into its packable
                # form (operand swap / reverse subtract) -- semantics
                # preserved, encoding satisfied
                packable = packable_form(alu)
                if packable is None or not can_pack(mem, packable):
                    continue
                score = nodes[c].height
                if best is None or score > best[0]:
                    best = (score, c, mem, packable)
            if best is not None:
                partner = best[1]
                place(partner)

        if partner is not None and best is not None:
            word = InstructionWord.packed(best[2], best[3])
        else:
            word = InstructionWord.single(primary_piece)

        if primary_piece.is_flow:
            flow_pos = len(words)
        words.append(word)
        time += 1

    # delay slots after the flow piece (filled later, or left as no-ops)
    if block.flow is not None:
        for _ in range(block.flow.delay_slots):
            words.append(InstructionWord.nop())

    return ScheduledBlock(block, words, flow_pos)


def naive_block(block: BasicBlock) -> ScheduledBlock:
    """The Table 11 "None" level: source order, no-ops wherever needed."""
    words: List[InstructionWord] = []
    flow_pos: Optional[int] = None
    previous: Optional[InstructionWord] = None
    for piece in block.pieces:
        word = InstructionWord.single(piece)
        if violates_load_delay(word, previous):
            words.append(InstructionWord.nop())
        if piece.is_flow:
            flow_pos = len(words)
        words.append(word)
        previous = words[-1]
    if block.flow is not None:
        for _ in range(block.flow.delay_slots):
            words.append(InstructionWord.nop())
    return ScheduledBlock(block, words, flow_pos)
