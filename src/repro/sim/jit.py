"""Profile-guided superblock fusion: the fast path's second gear.

The threaded-code tier (:mod:`repro.sim.fastpath`) already replaces
interpretation with one compiled handler per word, but the burst loop
still pays a dict lookup, an exception frame, and a per-word count
update for every executed word.  This module removes that remaining
dispatch cost for the code that matters: once a branch target's
execution count crosses the heat threshold, the straight-line run (or
loop body) rooted there is fused into a *single* generated-Python
handler -- the software analogue of macro-op fusion: same instruction
count, fewer dispatches per instruction.

Fusion rules (what keeps a block exact):

- A block starts at a compile-time-known branch target and extends
  through consecutive per-word-compilable words.  It splits *before*
  any other branch target (someone may jump into the middle), before
  any reference-stepper word (traps, specials, illegal words), at a
  page boundary, and at a length cap.
- At most one control-flow word is fused, and only together with its
  single delay slot: a direct ``Jump`` or ``CompareBranch`` whose delay
  word is itself fusable.  When the branch target is the block entry
  the generated handler iterates the loop *internally*, bounded by the
  burst budget -- zero dispatches per iteration.  ``JumpIndirect`` (two
  delay slots) is never fused.
- Each member word's body is emitted by the same
  :meth:`FastPathEngine._emit_word` emitter that builds the per-word
  handler templates (name-prefixed so the bodies share one namespace)
  and rendered to literal source, so the bail-before-mutation contract,
  hazard checks, deferred-load handling, and BARE-mode stale-read
  ordering are inherited verbatim.
- Progress protocol: the block reports words completed through the
  shared cell ``P[0]`` -- updated before every word that can bail and
  at every exit -- so the burst loop can expand the execution into
  exact per-word counts (whole passes plus a member-order prefix) and
  resume at ``pcs[P[0] % size]`` after a bail.
- Invalidation: stores inside a block already run the per-word
  ``FPCS``/``INVAL`` check; the engine additionally bumps a shared
  epoch on every invalidation, and blocks containing stores re-check
  the epoch at word boundaries (and at the loop back edge) so a store
  into the block's own region exits back to per-address handlers
  before any stale fused code runs.  DMA and loader pokes arrive via
  the physical memory watch hook; page-map changes drop all blocks.
"""

from __future__ import annotations

from types import FunctionType
from typing import List, Optional, Tuple

from ..isa.pieces import CompareBranch, Jump, JumpIndirect
from ..system.mapping import PAGE_SHIFT
from .fastpath import _FALLBACK, _define

#: fusion length cap: long runs split (diminishing returns, bounded
#: invalidation blast radius)
MAX_BLOCK_WORDS = 32
#: below this, fusion cannot beat per-word dispatch
MIN_BLOCK_WORDS = 2
#: a non-looping block is entered once per pass, so it must amortize
#: the entry overhead across enough fused words to pay for itself;
#: looping blocks amortize across iterations and stay at the minimum
MIN_STRAIGHT_WORDS = 6


class _Block:
    """A fused superblock: one callable covering ``pcs`` in order."""

    __slots__ = ("fn", "pcs", "size", "word_handler")

    def __init__(self, fn, pcs):
        self.fn = fn
        self.pcs = tuple(pcs)
        self.size = len(self.pcs)
        #: the entry's evicted per-word handler -- installing the block
        #: removes the entry from the context's handler table (so block
        #: dispatch rides the handler-miss path at zero cost to the
        #: per-word hot loop), and this keeps the single-word form
        #: available for arrivals that cannot enter the block (pending
        #: branch in flight, or burst budget smaller than one pass)
        self.word_handler = None


def build_block(engine, ctx, entry: int) -> Optional[_Block]:
    """Discover and fuse the superblock rooted at ``entry``, if any."""
    members = _discover(engine, ctx, entry)
    if members is None or len(members) < MIN_BLOCK_WORDS:
        return None
    return _fuse(engine, entry, members)


def _discover(engine, ctx, entry: int) -> Optional[List[Tuple[int, str, object]]]:
    """Walk forward from ``entry`` collecting fusable word IRs."""
    page = entry >> PAGE_SHIFT
    targets = engine._branch_targets
    members: List[Tuple[int, str, object]] = []
    pc = entry

    def fusable(addr: int) -> bool:
        if addr != entry and addr in targets:
            return False  # split at branch targets
        if addr >> PAGE_SHIFT != page:
            return False  # never fuse across a page boundary
        handler = ctx.handlers.get(addr)
        if handler is None:
            handler = engine._compile(ctx, addr)
        return handler is not _FALLBACK

    while len(members) < MAX_BLOCK_WORDS:
        if not fusable(pc):
            break
        prefix = f"w{len(members)}_"
        ir = engine._emit_word(ctx, pc, prefix)
        if ir is None:  # pragma: no cover - fusable() already screened
            break
        if isinstance(ir.flow, JumpIndirect):
            break  # two delay slots: stays per-word
        if ir.flow is not None:
            members.append((pc, prefix, ir))
            # fuse the single delay slot if it is itself a plain,
            # fusable, non-target word; otherwise the block ends at the
            # flow word and exports the pending branch through st
            delay = pc + 1
            if len(members) < MAX_BLOCK_WORDS and fusable(delay):
                dprefix = f"w{len(members)}_"
                dir_ = engine._emit_word(ctx, delay, dprefix)
                if dir_ is not None and dir_.flow is None:
                    members.append((delay, dprefix, dir_))
            break
        members.append((pc, prefix, ir))
        pc += 1
    return members or None


def _fuse(engine, entry: int, members) -> Optional[_Block]:
    """Generate and compile the fused handler for ``members``."""
    size = len(members)
    flow_idx = None
    for i, (_, _, ir) in enumerate(members):
        if ir.flow is not None:
            flow_idx = i
    flow = members[flow_idx][2].flow if flow_idx is not None else None
    fused_delay = flow is not None and flow_idx == size - 2
    target = int(flow.target) if isinstance(flow, (Jump, CompareBranch)) else None
    looping = fused_delay and target == entry
    if not looping and size < MIN_STRAIGHT_WORDS:
        return None
    has_store = any(ir.is_store for _, _, ir in members)

    lines: List[str] = []
    emit = lines.append
    if has_store:
        emit("_e0 = EP[0]")
    if looping:
        emit("_n = 0")
        emit("while True:")
        ind = "    "
    else:
        ind = ""

    def pos(k: int) -> str:
        """Expression for 'words completed before member k'."""
        if looping:
            return f"_n + {k}" if k else "_n"
        return str(k)

    fallthrough = members[-1][0] + 1
    for k, (wpc, p, ir) in enumerate(members):
        if ir.can_bail:
            emit(ind + f"P[0] = {pos(k)}")
        for line in ir.render():
            emit(ind + line)
        if k == flow_idx:
            # the per-word epilogue, folded: the pending slots are
            # statically empty here, so firing the branch is just
            # writing the countdown-1 slot
            if isinstance(flow, Jump):
                emit(ind + f"st[2] = {target}")
            else:  # CompareBranch
                emit(ind + f"if _{p}tk:")
                emit(ind + "    st[4] += 1")
                emit(ind + f"    st[2] = {target}")
            if not fused_delay:
                emit(ind + f"P[0] = {size}")
                emit(ind + f"return {wpc + 1}")
            elif ir.is_store:
                # a store fused with the branch may have invalidated
                # this very block: leave before the (possibly stale)
                # delay word, pending branch exported through st
                emit(ind + "if EP[0] != _e0:")
                emit(ind + f"    P[0] = {pos(k + 1)}")
                emit(ind + f"    return {wpc + 1}")
        elif ir.is_store and k < size - 1:
            # self-modifying store: if the epoch moved, later fused
            # words may be stale -- exit at this word boundary
            emit(ind + "if EP[0] != _e0:")
            emit(ind + f"    P[0] = {pos(k + 1)}")
            emit(ind + f"    return {wpc + 1}")

    if flow_idx is None:
        emit(f"P[0] = {size}")
        emit(f"return {fallthrough}")
    elif fused_delay:
        # the delay word consumed nothing (its body has no epilogue):
        # retire the pending slot exactly as the per-word epilogue would
        emit(ind + "_p = st[2]")
        emit(ind + "st[2] = -1")
        if looping:
            emit(ind + "if _p != -1:")  # taken: back edge to entry
            emit(ind + f"    _n += {size}")
            cond = "B - _n >= " + str(size)
            if has_store:
                cond = "EP[0] == _e0 and " + cond
            emit(ind + f"    if {cond}:")
            emit(ind + "        continue")
            emit(ind + "    P[0] = _n")
            emit(ind + f"    return {entry}")
            emit(ind + f"P[0] = _n + {size}")
            emit(ind + f"return {fallthrough}")
        else:
            emit(f"P[0] = {size}")
            emit(f"return _p if _p != -1 else {fallthrough}")
    # (flow at the last word already returned inside the loop above)

    src = "def _blk(regs, st, P, B):\n" + "\n".join("    " + line for line in lines)
    fn = FunctionType(_define(src, "_blk"), engine._env)
    return _Block(fn, [wpc for wpc, _, _ in members])
