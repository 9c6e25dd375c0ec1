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

Two knobs correspond to Table 11's cumulative levels: ``reorder``
(choose by priority rather than source order) and ``pack`` (fill the
second slot of the current word).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

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

    @property
    def delay_slot_positions(self) -> List[int]:
        if self.flow_pos is None or self.block.flow is None:
            return []
        return list(
            range(self.flow_pos + 1, self.flow_pos + 1 + self.block.flow.delay_slots)
        )


def _loaded_registers(word: Optional[InstructionWord]) -> Set:
    """Registers a word leaves in flight (its load destinations)."""
    if word is None or word.mem is None or not word.mem.is_load:
        return set()
    return set(word.mem.writes())


def violates_load_delay(word: InstructionWord, previous: Optional[InstructionWord]) -> bool:
    """True when ``word`` reads a register the previous word is loading."""
    in_flight = _loaded_registers(previous)
    return bool(in_flight and (set(word.reads()) & in_flight))


def schedule_block(
    block: BasicBlock, *, reorder: bool = True, pack: bool = True
) -> ScheduledBlock:
    """Schedule one basic block into instruction words.

    With ``reorder=False`` and ``pack=False`` this degenerates to the
    Table 11 "None" level for the block: source order, one piece per
    word, no-ops inserted wherever a pipeline constraint demands one.
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

    def choose(candidates: List[int]) -> int:
        if not reorder:
            return min(candidates)  # source order
        # highest critical path first; memory pieces break ties (they
        # open a packing hole); then source order for determinism
        return max(
            candidates,
            key=lambda i: (nodes[i].height, nodes[i].piece.is_memory, -i),
        )

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

        primary = choose(candidates)
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
