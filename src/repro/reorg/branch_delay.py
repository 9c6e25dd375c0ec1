"""Delayed-branch optimization: filling branch delay slots.

All branches are delayed ("If instruction i is a branch to L and the
branch is taken, then the sequence of instructions executed is i, i+1,
L").  Three filling schemes, straight from section 4.2.1:

1. **Hoist**: move an instruction from before the branch to after it.
   Always safe when the branch's comparison does not depend on it and
   it commutes with the words between -- it executes on both outcomes
   either way.
2. **Loop rotation**: for a backward (loop) branch, duplicate the first
   instruction of the loop into the slot and retarget the branch past
   it.  The duplicate executes spuriously on loop exit, so its writes
   must be dead on the fall-through path.
3. **Fall-through pull**: for a conditional branch, move the next
   sequential instruction into the slot.  It executes spuriously on the
   taken path, so its writes must be dead at the branch target (the
   paper's Figure 4: "it is assumed that r2 is 'dead' outside of the
   section shown").

Spurious *stores* are never allowed (Figure 4 again: "the store
instruction is not moved, as it affects memory").  Spurious *loads* are
allowed -- they can at worst re-fault restartably -- except from
absolute addresses, which may be device registers whose reads have side
effects.

Every candidate fill is validated by re-checking the whole block
against the pipeline constraints before being committed, so the filler
can never introduce a load-delay violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..isa.pieces import Absolute, CompareBranch, Jump, Piece
from ..isa.registers import ALL_REGISTERS, SPECIAL_REGISTERS
from ..isa.words import InstructionWord
from .blocks import FlowGraph, liveness
from .scheduler import ScheduledBlock, violates_load_delay


@dataclass
class DelayFillStats:
    """How many slots each scheme filled (and how many stayed no-ops)."""

    hoisted: int = 0
    loop_rotated: int = 0
    fallthrough_pulled: int = 0
    unfilled: int = 0

    @property
    def filled(self) -> int:
        return self.hoisted + self.loop_rotated + self.fallthrough_pulled


def _word_is_hoistable(word: InstructionWord) -> bool:
    """Can this word move from before the branch to after it (scheme 1)?"""
    if word.is_nop or word.flow is not None:
        return False
    return not (word.reads() | word.writes()) & SPECIAL_REGISTERS


def _word_is_fillable(word: InstructionWord) -> bool:
    """Can this word execute spuriously (schemes 2 and 3)?"""
    if not _word_is_hoistable(word):
        return False
    mem = word.mem
    # device reads have side effects: never speculate an absolute load
    return mem is None or not (mem.is_store or isinstance(mem.addr, Absolute))


class _WordEffects(NamedTuple):
    """The register sets a word reads and writes, and its memory piece."""

    reads: int
    writes: int
    mem: Optional[Piece]


def _word_effects(word: InstructionWord) -> _WordEffects:
    return _WordEffects(word.reads(), word.writes(), word.mem)


def _depends(a: _WordEffects, b: _WordEffects) -> bool:
    """Any register or memory dependence between two words."""
    if (a.writes & b.reads) or (a.reads & b.writes) or (a.writes & b.writes):
        return True
    if a.mem is not None and b.mem is not None:
        if a.mem.is_store or b.mem.is_store:
            return True
        # two absolute-addressed loads may be device reads: order pinned
        if isinstance(a.mem.addr, Absolute) and isinstance(b.mem.addr, Absolute):
            return True
    return False


def _block_schedule_valid(words: Sequence[InstructionWord]) -> bool:
    """No word reads a register loaded by its immediate predecessor."""
    for prev, word in zip(words, words[1:]):
        if violates_load_delay(word, prev):
            return False
    return True


class DelaySlotFiller:
    """Fills the delay slots of every scheduled block in a program."""

    def __init__(self, graph: FlowGraph, scheduled: List[ScheduledBlock]):
        self.graph = graph
        self.scheduled = {sb.block.index: sb for sb in scheduled}
        self.order = [sb.block.index for sb in scheduled]
        self.live_in = liveness(graph)
        self.stats = DelayFillStats()
        #: labels introduced by loop rotation: label -> (block index,
        #: word offset within that block's word list)
        self.split_labels: Dict[str, Tuple[int, int]] = {}
        #: blocks that are rotation targets: their word order is pinned
        #: (a split label points into them by offset), so no later
        #: transformation may reorder or shorten their prefix
        self._rotation_targets: Set[int] = set()
        self._split_counter = 0

    # -- cross-block safety ----------------------------------------------------

    def _first_real_word(self, block_index: Optional[int]) -> Optional[InstructionWord]:
        if block_index is None:
            return None
        sb = self.scheduled.get(block_index)
        if sb is None:
            return None
        for word in sb.words:
            if not word.is_nop:
                return word
        return self._first_real_word(self.graph.blocks[block_index].fallthrough)

    def _entry_reads(self, block_index: Optional[int]) -> int:
        """The register set the first executed word of a successor reads."""
        word = self._first_real_word(block_index)
        if word is None:
            if block_index is None:
                return ALL_REGISTERS  # unknown successor: conservative
            return 0
        return word.reads()

    def _final_load_ok(self, word: InstructionWord, sb: ScheduledBlock) -> bool:
        """A load in the block's final slot must not feed a successor's entry."""
        if word.mem is None or not word.mem.is_load:
            return True
        dsts = word.mem.writes()
        block = sb.block
        taken = self.graph.taken_successor(block)
        if block.target_label is not None and taken is None:
            return False  # target outside the stream: unknown entry
        if taken is not None and dsts & self._entry_reads(taken):
            return False
        if block.falls_through and dsts & self._entry_reads(block.fallthrough):
            return False
        return True

    # -- the three schemes ---------------------------------------------------

    def _try_hoist(self, sb: ScheduledBlock, slot: int) -> bool:
        """Scheme 1: move a word from before the branch into the slot."""
        if sb.block.index in self._rotation_targets:
            return False  # a split label pins this block's word order
        flow_pos = sb.flow_pos
        assert flow_pos is not None
        flow_word = sb.words[flow_pos]
        flow_reads = flow_word.reads()
        flow_writes = flow_word.writes()  # jal/jalr write the link
        # effects of the words between word k and the flow word, each
        # computed once as k walks back from the branch
        between: List[_WordEffects] = []
        for k in range(flow_pos - 1, -1, -1):
            word = sb.words[k]
            effects = _word_effects(word)
            movable = (
                _word_is_hoistable(word)
                # the comparison must not depend on it
                and not effects.writes & flow_reads
                # moving past the branch would see the link register's
                # NEW value (or clobber it): a jal's ra is off limits
                and not (effects.reads | effects.writes) & flow_writes
                and not any(_depends(effects, other) for other in between)
            )
            between.append(effects)
            if not movable:
                continue
            candidate = list(sb.words)
            del candidate[k]
            candidate[slot - 1] = word  # indices past k shifted down
            if not _block_schedule_valid(candidate):
                continue
            if slot - 1 == len(candidate) - 1 and not self._final_load_ok(word, sb):
                continue
            sb.words[:] = candidate
            sb.flow_pos = flow_pos - 1
            self.stats.hoisted += 1
            return True
        return False

    def _try_loop_rotate(self, sb: ScheduledBlock, slot: int) -> bool:
        """Scheme 2: duplicate the target's first word into the final slot.

        The paper states the scheme for backward loop branches; it is
        equally sound for *unconditional* jumps in either direction --
        with no fall-through path the duplicate never executes
        spuriously, so no liveness proof is needed.
        """
        block = sb.block
        target = self.graph.taken_successor(block)
        if target is None:
            return False
        unconditional = not block.falls_through
        if block.falls_through and block.fallthrough == target:
            # branch-to-next: the duplicate would execute twice on the
            # fall-through path
            return False
        target_sb = self.scheduled.get(target)
        if target_sb is None or len(target_sb.words) < 2:
            return False
        first = target_sb.words[0]
        if unconditional:
            # no spurious path: only structural restrictions apply
            if not _word_is_hoistable(first):
                return False
        elif not _word_is_fillable(first):
            return False
        # spurious execution on loop exit: writes must be dead there
        if block.falls_through:
            if block.fallthrough is None:
                return False
            if first.writes() & self.live_in[block.fallthrough]:
                return False
        candidate = list(sb.words)
        candidate[slot] = first
        if not _block_schedule_valid(candidate):
            return False
        # the copy immediately precedes the rotated entry on the taken path
        if violates_load_delay(target_sb.words[1], first):
            return False
        if not self._final_load_ok(first, sb):
            return False
        flow = sb.words[sb.flow_pos].flow  # type: ignore[index]
        label = self._split_label(target, offset=1)
        if isinstance(flow, CompareBranch):
            new_flow: Piece = CompareBranch(flow.cond, flow.s1, flow.s2, label)
        elif isinstance(flow, Jump):
            new_flow = Jump(label, flow.link)
        else:
            return False
        candidate[sb.flow_pos] = InstructionWord.single(new_flow)  # type: ignore[index]
        sb.words[:] = candidate
        self._rotation_targets.add(target)
        self.stats.loop_rotated += 1
        return True

    def _try_fallthrough_pull(self, sb: ScheduledBlock, slot: int) -> bool:
        """Scheme 3: move the next sequential word into the final slot."""
        block = sb.block
        if not isinstance(block.flow, CompareBranch):
            return False
        ft = block.fallthrough
        if ft is None:
            return False
        if self.graph.predecessors.get(ft, []) != [block.index]:
            return False  # the word must remain in place for other entries
        if ft in self._rotation_targets:
            return False  # popping its first word would shift a split label
        ft_sb = self.scheduled.get(ft)
        if ft_sb is None or len(ft_sb.words) < 2 or ft_sb.flow_pos == 0:
            return False
        first = ft_sb.words[0]
        if not _word_is_fillable(first):
            return False
        # spurious execution on the taken path: writes dead at the target
        target = self.graph.taken_successor(block)
        if target is None:
            return False
        if first.writes() & self.live_in[target]:
            return False
        candidate = list(sb.words)
        candidate[slot] = first
        if not _block_schedule_valid(candidate):
            return False
        # on the fall-through path the pulled word now precedes the
        # remainder of the fall-through block
        if violates_load_delay(ft_sb.words[1], first):
            return False
        if not self._final_load_ok(first, sb):
            return False
        sb.words[:] = candidate
        ft_sb.words.pop(0)
        if ft_sb.flow_pos is not None:
            ft_sb.flow_pos -= 1
        self.stats.fallthrough_pulled += 1
        return True

    def _split_label(self, block_index: int, offset: int) -> str:
        block = self.graph.blocks[block_index]
        base = block.label or f"block{block_index}"
        self._split_counter += 1
        label = f"{base}__bd{self._split_counter}"
        self.split_labels[label] = (block_index, offset)
        return label

    # -- driver ----------------------------------------------------------------

    def fill(self) -> DelayFillStats:
        """Fill every delay slot it can; returns the per-scheme stats."""
        for index in self.order:
            sb = self.scheduled[index]
            if sb.flow_pos is None or sb.block.flow is None:
                continue
            delay = sb.block.flow.delay_slots
            for slot_number in range(delay):
                assert sb.flow_pos is not None
                slot = sb.flow_pos + 1 + slot_number
                if slot >= len(sb.words) or not sb.words[slot].is_nop:
                    continue
                # preference order: hoist and pull each shrink the
                # program by a word; rotation only converts the no-op
                # into useful (duplicated) work
                final_slot = slot_number == delay - 1
                if self._try_hoist(sb, slot):
                    continue
                if final_slot and self._try_fallthrough_pull(sb, slot):
                    continue
                if final_slot and self._try_loop_rotate(sb, slot):
                    continue
                self.stats.unfilled += 1
        return self.stats
