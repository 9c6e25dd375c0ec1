"""Threaded-code fast path for the simulator.

The per-step interpreter in :class:`~repro.sim.cpu.Cpu` pays Python-level
dispatch costs (isinstance chains, dict churn, attribute lookups) for
every executed word.  This module turns each instruction word into a
specialized Python function (threaded-code style) and runs a batched
inner loop over those handlers, only falling back to the precise
reference stepper for the rare events it cannot prove cheap: faults,
traps, privileged/special instructions, interlock stalls, device-window
accesses, and interrupt delivery.

Handlers are compiled once per *template* and instantiated per address.
The emitters write every word-specific integer (register numbers,
immediates, displacements, targets, ``pc + 1``) as a numbered slot, so
words that differ only in those integers share one template text.  The
first word with a given text in the process pays one ``exec()``,
compiled with unique sentinel constants whose positions in the code
object's ``co_consts`` are recorded; every later word, on this engine or
any other, is ``code.replace(co_consts=...)`` with its own values --
bytecode identical to compiling its literal source, at a fraction of
the cost.  Emitters therefore never let two literals meet in one
constant-foldable expression (e.g. an immediate's sign bias is applied
at emit time), and template compilation asserts that every slot
survived as its own constant.

The arithmetic is not written here: ALU results, overflow predicates and
comparisons are rendered from the expression tables of
:mod:`repro.isa.operations`, the same entries the reference stepper's
evaluators are compiled from; address modes and the segment check, from
:mod:`repro.isa.addressing`.  Handlers carry the rendered text inline
and never call the compiled functions.

Correctness discipline (what keeps the fast path bit-for-bit identical
to :meth:`Cpu.step`):

- **Bail before mutation.**  A handler raises the private ``_Bail``
  exception *before* touching any architectural state.  The bailed word
  then re-executes exactly once on the reference stepper, which performs
  the precise fault ordering, stats accounting, and device side effects.
- **Exact stats by counts x deltas.**  Each compiled word has a static
  stats-delta tuple; the burst loop counts executions per address and
  the flush multiplies.  Every fast word is exactly one cycle (all
  stall/flush cases bail), so ``cycles == words`` holds within a burst
  and kernel timer quanta stay exact under batching.
- **Pipeline state in a 5-slot list** (``st``): deferred-load register
  and value, the two pending-branch slots (countdown 1 and 2), and the
  dynamic taken-branch counter.  It is synced from and back to the CPU's
  canonical fields around every burst, so reference steps interleave
  transparently.
- **Self-modifying code** is caught by invalidation: fast stores check
  the written physical address against the map of addresses handlers
  were compiled from, and all reference-path writes (including device
  DMA and loader pokes) report through :attr:`PhysicalMemory.watch_hook`.

Execution contexts:

- **Unmapped** (mapping off), over a bare
  :class:`~repro.sim.memory.PhysicalMemory` or the physical side of a
  ``MappedMemory``: handlers are keyed by physical address, and
  device-window references bail.
- **Mapped** (user mode under the kernel), over a ``MappedMemory``:
  handlers are keyed by virtual PC, so per-PC profiles keep virtual PCs.
  The fetch is translated once, at compile time; each data reference is
  translated by its handler -- the on-chip segment check rendered with
  the context's window as slots, then a lookup in the live page map --
  and bails on a hole, a map miss or a bus error, so the reference stepper
  raises the precise fault.  Mapped references never reach the device
  window.  Translation counts flush as counts x deltas; a handler sets
  its data page's referenced (and, storing, dirty) bit at commit, and
  the flush sets the fetch pages' referenced bits.  Both readers of
  those bits (``PM_VICTIM`` and host-side page drops) run between
  bursts, and no burst spans a mode switch.  A map or unmap bumps
  :attr:`PageMap.generation`; a context entering a burst after that
  drops its words on pages whose frame changed or vanished.

Mapping on over a memory without a page map steps precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import FunctionType
from typing import Dict, Optional

from ..isa.addressing import ADDRESS_EXPRESSIONS, SEGMENT_CHECK, segment_translator, segment_window
from ..isa.bits import u32
from ..isa.encoding import decode
from ..isa.operations import (
    ALU_EXPRESSIONS,
    COMPARISONS,
    OVERFLOW_EXPRESSIONS,
    AluOp,
    compare,
)
from ..isa.pieces import (
    Absolute,
    Alu,
    CompareBranch,
    Imm,
    Jump,
    JumpIndirect,
    Load,
    LoadImm,
    MovImm,
    Noop,
    ReadSpecial,
    Rfs,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from ..isa.registers import NUM_REGISTERS, RA, SpecialReg
from .cpu import HazardMode

class _Bail(Exception):
    """Raised by a handler, pre-mutation, to punt to the reference stepper."""


#: pre-built instance: raising it skips exception construction.  Every
#: raise chains the raising frames onto its ``__traceback__``, so the
#: burst clears it on catch -- otherwise it would keep every CPU that
#: ever bailed alive
_BAIL = _Bail("fast path bail")

#: cache marker for words that must always run on the reference stepper
_FALLBACK = object()

_MASK = 4294967295

#: first sentinel constant a template is compiled with: far above every
#: value a handler computes with, so no slot collides with a real literal
_SENTINEL = 1 << 62

#: template text -> (code, co_consts, slot indices into co_consts), for
#: every engine in the process.  An entry is a pure function of its key
#: and is never mutated: handlers get their own ``co_consts`` and their
#: engine's globals, so sharing it changes no handler.
_TEMPLATES: Dict[str, tuple] = {}


def _compile_template(src: str, nslots: int) -> tuple:
    """``(code, co_consts, slot indices)`` of template ``src``.

    The first call with a given text in the process pays one ``exec()``:
    ``src`` compiled with a unique sentinel per slot, and where each
    sentinel landed in ``co_consts``.  Later calls return that entry.
    """
    template = _TEMPLATES.get(src)
    if template is not None:
        return template
    sentinels = range(_SENTINEL, _SENTINEL + nslots)
    namespace: Dict[str, object] = {}
    exec(src.format(*sentinels), namespace)  # noqa: S102 - generating threaded-code handlers
    code = namespace["_h"].__code__
    consts = code.co_consts
    for sentinel in sentinels:
        # a slot folded into a neighbouring literal would leave every
        # word of this template running the first word's constant
        assert sentinel in consts, f"slot folded away in template:\n{src}"
    template = _TEMPLATES[src] = (code, consts, tuple(consts.index(s) for s in sentinels))
    return template


class _Slots(list):
    """The word-specific integers of one emitted word, in slot order.

    Calling it records a value and returns the placeholder the template
    text carries in its place; ``template.format(*slots)`` renders the
    word's literal source.
    """

    __slots__ = ()

    def __call__(self, value: int) -> str:
        self.append(value)
        return "{%d}" % (len(self) - 1)


@dataclass
class EngineStats:
    """Fast-path diagnostics (engine-specific -- the reference stepper
    has no analogue, so these never enter fingerprints or profiles that
    must match across engines)."""

    compiles: int = 0        # words compiled into handlers
    templates: int = 0       # distinct handler templates this engine used
    fallbacks: int = 0       # words screened out at compile time
    bails: int = 0           # handlers that punted pre-mutation at run time
    invalidations: int = 0   # code addresses written over (SMC, DMA, loader pokes)
    bursts: int = 0          # batched inner-loop entries
    # dispatch accounting (deterministic per workload: burst boundaries
    # are serial and exact, so word_dispatches + ref_steps == words)
    word_dispatches: int = 0    # words executed through per-address handlers
    ref_steps: int = 0          # words delegated to the reference stepper
    # always 0: the removed superblock tier's counters, still listed as
    # per-layer metrics by the benchmark
    block_compiles: int = 0
    block_entries: int = 0
    block_bails: int = 0
    fused_words: int = 0


class _Context:
    """Handler and stats-delta caches for one unmapped execution context.

    The context is keyed by ``flags``, the surprise register's privilege
    and overflow-enable bits.  Handler caches are keyed by word address.
    """

    __slots__ = ("flags", "handlers", "deltas")
    mapped = False

    def __init__(self, flags: int):
        self.flags = flags
        self.handlers: Dict[int, object] = {}
        #: address -> (pieces, noops, loads, stores, branches,
        #:             taken_static, mem_used, note[, fetch page])
        self.deltas: Dict[int, tuple] = {}


class _MappedContext(_Context):
    """A mapped context: one segment, keyed by the privilege and
    overflow-enable bits plus ``seg_pid`` and ``seg_mask``.

    Handlers are keyed by virtual PC.  ``window`` holds the segment
    check's numbers, which handlers carry as slots; ``translate`` runs
    the check at emit time, on fetches and absolute addresses.
    ``pages`` maps each system page compiled from to
    the frame it was in then and the PCs compiled from it, so a map
    change drops exactly those words.  A handler depends on the context,
    the virtual PC and the word's bits, never on the frame: ``memo``
    keeps every ``(pc, bits) -> (handler, delta)``, and a page paged back
    in re-adopts its handlers instead of recompiling them.
    """

    __slots__ = ("window", "translate", "pages", "memo", "generation")
    mapped = True

    def __init__(self, flags: int, seg_pid: int, seg_mask: int):
        super().__init__(flags)
        self.window = segment_window(seg_pid, seg_mask)
        self.translate = segment_translator(seg_pid, seg_mask)
        self.pages: Dict[int, tuple] = {}
        self.memo: Dict[tuple, tuple] = {}
        #: the page-map generation ``pages`` was last checked against
        self.generation = -1


class _WordIR:
    """One word's emitted straight-line code, sans epilogue.

    ``body`` is everything the per-word handler does except next-PC
    selection, which :meth:`FastPathEngine._emit_epilogue` appends.  Its
    lines are template text whose placeholders index ``slots``.
    """

    __slots__ = ("body", "slots", "flow", "delta")

    def __init__(self, body, slots, flow, delta):
        self.body = body
        self.slots = slots
        self.flow = flow
        self.delta = delta


class FastPathEngine:
    """Batched threaded-code executor bound to one :class:`Cpu`."""

    def __init__(self, cpu):
        self.cpu = cpu
        mem = cpu.memory
        # duck-type the memory stack: a MappedMemory exposes .physical
        # (and possibly .devices); a bare PhysicalMemory is its own store
        physical = getattr(mem, "physical", None)
        if physical is None and hasattr(mem, "_words"):
            physical = mem
        self._phys = physical
        self._devices = getattr(mem, "devices", None)
        self._pagemap = getattr(mem, "pagemap", None)
        if self._pagemap is not None:
            from ..system.mapping import PAGE_SHIFT  # local: the system layer imports sim

            self._page_shift = PAGE_SHIFT
        self._supported = physical is not None and hasattr(physical, "_words")
        self._contexts: Dict[object, _Context] = {}
        #: physical address -> the (context, pc) handlers compiled from it
        self._code: Dict[int, list] = {}
        self._disabled = False
        #: steps completed by the current/last run() call *before* any
        #: exception escaped -- callers use this to account for steps
        #: when a reference step raises (halt, hazard violation, ...)
        self.last_run_steps = 0
        self.stats = EngineStats()
        self._st = [-1, 0, -1, -1, 0]
        #: the templates this engine used, in front of the shared ones
        self._templates: Dict[str, tuple] = {}
        #: the globals every generated handler runs with
        self._env = self._globals() if self._supported else None
        if self._supported and hasattr(physical, "watch_hook"):
            physical.watch_hook = self._on_external_write

    # ------------------------------------------------------------------
    # driving loop
    # ------------------------------------------------------------------

    def run(self, max_steps: int, cycle_limit: Optional[int] = None) -> int:
        """Execute up to ``max_steps`` words; returns the number executed.

        With ``cycle_limit``, stops at the first step boundary where
        ``stats.cycles >= cycle_limit`` -- the exact boundary the
        per-step kernel loop would have observed, because fast words are
        one cycle each and reference steps re-check before issue.

        Machine-level exceptions (halt, traps surfacing to Python,
        hazard violations) propagate from the reference stepper;
        :attr:`last_run_steps` then holds the steps completed *before*
        the raising word, matching the per-step loops this replaces.
        """
        cpu = self.cpu
        stats = cpu.stats
        surprise = cpu.surprise
        estats = self.stats
        steps = 0
        self.last_run_steps = 0
        supported = self._supported and not self._disabled
        while True:
            self.last_run_steps = steps
            if steps >= max_steps:
                break
            if cycle_limit is not None and stats.cycles >= cycle_limit:
                break
            sv = surprise.value
            ctx = None
            if (
                supported
                and not cpu._forced_stream
                and not (cpu.interrupt_line and sv & 2)
            ):
                ctx = self._context(sv)
            if ctx is not None:
                budget = max_steps - steps
                if cycle_limit is not None:
                    budget = min(budget, cycle_limit - stats.cycles)
                n = self._burst(ctx, budget)
                steps += n
                self.last_run_steps = steps
                if self._disabled:
                    supported = False
                if steps >= max_steps:
                    break
                if cycle_limit is not None and stats.cycles >= cycle_limit:
                    break
            # exactly one precise step: the word a burst stopped at (a
            # fallback, a bailed word, a faulting fetch), interrupt
            # delivery, a forced return stream, or an unsupported memory
            estats.ref_steps += 1
            cpu.step()
            steps += 1
        self.last_run_steps = steps
        return steps

    def _context(self, sv: int) -> Optional[_Context]:
        """The context for surprise value ``sv``, revalidated against the
        page map when mapped; None for mapping on without a page map."""
        contexts = self._contexts
        if not sv & 8:
            key = sv & 5  # privilege | overflow-enable
            ctx = contexts.get(key)
            if ctx is None:
                ctx = contexts[key] = _Context(key)
            return ctx
        pagemap = self._pagemap
        if pagemap is None:
            return None
        cpu = self.cpu
        key = (sv & 5, cpu.seg_pid, cpu.seg_mask)
        ctx = contexts.get(key)
        if ctx is None:
            ctx = contexts[key] = _MappedContext(*key)
        if ctx.generation != pagemap.generation:
            self._revalidate(ctx)
        return ctx

    # ------------------------------------------------------------------
    # the burst: sync in, run handlers, flush stats, sync out
    # ------------------------------------------------------------------

    def _burst(self, ctx: _Context, budget: int) -> int:
        cpu = self.cpu
        regs = cpu.regs
        st = self._st
        self.stats.bursts += 1

        # ---- sync pipeline state into the burst-local form ------------
        deferred = cpu._deferred_load
        if deferred:
            if len(deferred) != 1:  # cannot happen architecturally
                self._disabled = True
                return 0
            (st[0], st[1]), = deferred.items()
        else:
            st[0] = -1
        p1 = p2 = -1
        for countdown, target in cpu._pending_branches:
            # simultaneous countdowns: the later-appended entry wins the
            # fire and both retire, so last-wins assignment is exact
            if countdown == 1:
                p1 = target
            elif countdown == 2:
                p2 = target
            else:  # not a state the CPU can produce
                self._disabled = True
                return 0
        st[2], st[3], st[4] = p1, p2, 0

        pc = cpu.pc
        n = 0
        counts: Dict[int, int] = {}
        handlers = ctx.handlers
        get_handler = handlers.get
        get_count = counts.get
        try:
            while n < budget:
                h = get_handler(pc)
                if h is None:
                    if pc in counts:
                        # invalidated mid-burst: flush the executions of
                        # the old word against its old delta first
                        break
                    h = self._compile(ctx, pc)
                    if h is None:
                        break  # the fetch faults: the reference step raises it
                if h is _FALLBACK:
                    break
                try:
                    npc = h(regs, st)
                except _Bail:
                    _BAIL.__traceback__ = None
                    self.stats.bails += 1
                    break
                counts[pc] = get_count(pc, 0) + 1
                pc = npc
                n += 1
        finally:
            # ---- flush stats (counts x static deltas) -----------------
            self.stats.word_dispatches += n
            stats = cpu.stats
            if counts:
                deltas = ctx.deltas
                words = pieces = noops = loads = stores = 0
                branches = taken = mem_used = 0
                for wpc, c in counts.items():
                    d = deltas[wpc]
                    words += c
                    pieces += c * d[0]
                    noops += c * d[1]
                    loads += c * d[2]
                    stores += c * d[3]
                    branches += c * d[4]
                    taken += c * d[5]
                    mem_used += c * d[6]
                    if d[7] is not None:
                        stats.ref_notes[d[7]] += c
                stats.words += words
                stats.cycles += words
                stats.pieces += pieces
                stats.noops += noops
                stats.loads += loads
                stats.stores += stores
                stats.branches += branches
                stats.branches_taken += taken + st[4]
                stats.memory_cycles_used += mem_used
                stats.free_memory_cycles += words - mem_used
                mstats = self._phys.stats
                mstats.fetches += words
                mstats.reads += loads
                mstats.writes += stores
                if ctx.mapped:
                    pagemap = self._pagemap
                    pagemap.stats.translations += words + loads + stores
                    referenced = pagemap.referenced
                    for wpc in counts:
                        referenced[deltas[wpc][8]] = True
                profiler = cpu.profiler
                if profiler is not None:
                    pcounts = profiler.counts
                    pget = pcounts.get
                    for wpc, c in counts.items():
                        pcounts[wpc] = pget(wpc, 0) + c
            elif st[4]:  # pragma: no cover - taken implies counts
                stats.branches_taken += st[4]

            # ---- sync pipeline state back to the CPU ------------------
            cpu.pc = pc
            cpu._deferred_load = {st[0]: st[1]} if st[0] != -1 else {}
            pending = []
            if st[2] != -1:
                pending.append([1, st[2]])
            if st[3] != -1:
                pending.append([2, st[3]])
            cpu._pending_branches = pending
        return n

    # ------------------------------------------------------------------
    # invalidation (self-modifying code, DMA, loader pokes, map changes)
    # ------------------------------------------------------------------

    def _invalidate(self, addr: int) -> None:
        """Drop every handler compiled from physical address ``addr``.

        Stats deltas are intentionally left behind: executions counted
        before the invalidation belong to the old word and must flush
        against its old delta; a recompile overwrites the entry.
        """
        self.stats.invalidations += 1
        for ctx, pc in self._code.pop(addr):
            ctx.handlers.pop(pc, None)

    def _on_external_write(self, addr: int) -> None:
        if addr in self._code:
            self._invalidate(addr)

    def _revalidate(self, ctx: _MappedContext) -> None:
        """Drop ``ctx``'s words on pages whose frame changed or vanished."""
        entries = self._pagemap.entries
        shift = self._page_shift
        offset_mask = (1 << shift) - 1
        code = self._code
        for page, (frame, pcs) in list(ctx.pages.items()):
            if entries.get(page) == frame:
                continue
            del ctx.pages[page]
            base = frame << shift
            for pc in pcs:
                if ctx.handlers.pop(pc, None) is not None:
                    phys = base | (pc & offset_mask)
                    owners = code[phys]
                    owners.remove((ctx, pc))
                    if not owners:
                        del code[phys]
        ctx.generation = self._pagemap.generation

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def _compile(self, ctx: _Context, pc: int):
        """The handler of ``pc`` in ``ctx``, cached; None when fetching
        ``pc`` faults now -- the reference step raises the fault, and
        nothing is cached.  Mapped contexts re-adopt a memoized handler
        when the word's bits are unchanged."""
        if ctx.mapped:
            sysva = ctx.translate(pc & _MASK)
            if sysva is None:
                return None
            shift = self._page_shift
            page = sysva >> shift
            frame = self._pagemap.entries.get(page)
            if frame is None:
                return None
            phys = (frame << shift) | (sysva & ((1 << shift) - 1))
        else:
            phys = pc
        if not 0 <= phys < self._phys.size:
            return None
        bits = self._phys._words.get(phys, 0)
        if ctx.mapped:
            built = ctx.memo.get((pc, bits))
            if built is None:
                built = ctx.memo[pc, bits] = self._build(ctx, pc, bits)
            ctx.pages.setdefault(page, (frame, set()))[1].add(pc)
        else:
            built = self._build(ctx, pc, bits)
        handler, delta = built
        ctx.handlers[pc] = handler
        if delta is not None:
            ctx.deltas[pc] = delta
        self._code.setdefault(phys, []).append((ctx, pc))
        return handler

    def _globals(self) -> Dict[str, object]:
        """The globals of every generated handler: built once per engine."""
        env = {
            "_B": _BAIL,
            "MW": self._phys._words,
            "MWG": self._phys._words.get,
            "CPU": self.cpu,
            "FPCS": self._code,
            "INVAL": self._invalidate,
        }
        pagemap = self._pagemap
        if pagemap is not None:
            env["PMG"] = pagemap.entries.get
            env["PMR"] = pagemap.referenced
            env["PMD"] = pagemap.dirty
        return env

    def _word_template(self, ctx: _Context, pc: int, bits: int):
        """The handler of word ``bits`` at ``pc`` as ``(template source, IR)``.

        ``source.format(*ir.slots)`` is the handler's literal source;
        ``None`` when the word belongs to the reference stepper.
        """
        ir = self._emit_word(ctx, pc, bits)
        if ir is None:
            return None
        body = ir.body + self._emit_epilogue(ir.flow, pc, ir.slots)
        return "def _h(regs, st):\n" + "\n".join("    " + line for line in body), ir

    def _build(self, ctx: _Context, pc: int, bits: int) -> tuple:
        """``(handler, stats delta)`` of word ``bits`` at ``pc``;
        ``(_FALLBACK, None)`` when the word belongs to the reference
        stepper."""
        word = self._word_template(ctx, pc, bits)
        if word is None:
            self.stats.fallbacks += 1
            return _FALLBACK, None
        self.stats.compiles += 1
        src, ir = word
        template = self._templates.get(src)
        if template is None:
            template = self._templates[src] = _compile_template(src, len(ir.slots))
            self.stats.templates += 1
        code, consts, where = template
        consts = list(consts)
        for i, value in zip(where, ir.slots):
            consts[i] = value
        return FunctionType(code.replace(co_consts=tuple(consts)), self._env), ir.delta

    def _emit_word(self, ctx: _Context, pc: int, bits: int):
        """Emit the straight-line IR of word ``bits`` fetched at ``pc``.

        Returns a :class:`_WordIR` (body sans next-PC epilogue) or
        ``None`` when the word belongs to the reference stepper.
        """
        cpu = self.cpu
        cached = cpu._decode_cache.get(pc)
        if cached is not None and cached[0] == bits:
            word = cached[1]
        else:
            try:
                word = decode(bits, pc)
            except Exception:
                return None  # reference fetch raises IllegalInstruction
            cpu._decode_cache[pc] = (bits, word)

        mode = cpu.hazard_mode
        checked = mode is HazardMode.CHECKED
        interlocked = mode is HazardMode.INTERLOCKED
        ovf_enabled = bool(ctx.flags & 4)

        k = _Slots()        # word-specific integers, as template slots
        pre: list = []      # pure evaluation + all bail checks
        commit: list = []   # register/special commits (post-deferred)
        read_set = word.reads()
        reads = [n for n in range(NUM_REGISTERS) if read_set >> n & 1]
        mem_piece = word.mem
        flow = None
        load_dst = None
        note = None
        pieces = noops = 0

        # ---- screen + evaluate each piece -----------------------------
        for idx, piece in enumerate(word.pieces):
            if isinstance(piece, Noop):
                noops += 1
                continue
            pieces += 1
            if isinstance(piece, (Trap, Rfs)):
                return None
            if isinstance(piece, ReadSpecial):
                if piece.sreg is not SpecialReg.LO:
                    return None
                commit.append(f"regs[{k(piece.dst.number)}] = CPU.lo")
                continue
            if isinstance(piece, WriteSpecial):
                if piece.sreg is not SpecialReg.LO:
                    return None
                pre.append(f"_w{idx} = {self._operand(piece.src, k)}")
                commit.append(f"CPU.lo = _w{idx}")
                continue
            if isinstance(piece, MovImm):
                commit.append(f"regs[{k(piece.dst.number)}] = {k(piece.value)}")
                continue
            if isinstance(piece, LoadImm):
                commit.append(f"regs[{k(piece.dst.number)}] = {k(u32(piece.value))}")
                continue
            if isinstance(piece, Alu):
                pre.extend(self._emit_alu(piece, idx, ovf_enabled, k))
                commit.append(f"regs[{k(piece.dst.number)}] = _t{idx}")
                continue
            if isinstance(piece, SetCond):
                pre.append(f"_t{idx} = 1 if {self._emit_cond(piece, k)} else 0")
                commit.append(f"regs[{k(piece.dst.number)}] = _t{idx}")
                continue
            if isinstance(piece, CompareBranch):
                if not isinstance(piece.target, int):
                    return None
                pre.append(f"_tk = {self._emit_cond(piece, k)}")
                if interlocked:
                    # taken branches squash the pipe: reference work
                    pre.append("if _tk: raise _B")
                flow = piece
                continue
            if isinstance(piece, Jump):
                if not isinstance(piece.target, int) or interlocked:
                    return None
                if piece.link:
                    commit.append(f"regs[{RA.number}] = {k(pc + 1 + piece.delay_slots)}")
                flow = piece
                continue
            if isinstance(piece, JumpIndirect):
                if interlocked:
                    return None
                pre.append(f"_tgt = regs[{k(piece.reg.number)}]")
                if piece.link:
                    commit.append(f"regs[{RA.number}] = {k(pc + 1 + piece.delay_slots)}")
                flow = piece
                continue
            if isinstance(piece, (Load, Store)):
                continue  # handled below with the address
            return None  # unknown piece type

        # ---- memory reference -----------------------------------------
        mem_lines: list = []
        if mem_piece is not None:
            ea = self._emit_ea(ctx, mem_piece, pre, k)
            if ea is None:
                return None
            note = mem_piece.note
            if isinstance(mem_piece, Load):
                mem_lines.append(f"_vld = MWG({ea}, 0)")
                load_dst = k(mem_piece.dst.number)
            else:
                pre.append(f"_vst = regs[{k(mem_piece.src.number)}]")
                mem_lines.append(f"MW[{ea}] = _vst")
                mem_lines.append(f"if {ea} in FPCS: INVAL({ea})")
            if ctx.mapped:
                mem_lines.append("PMR[_pg] = True")
                if isinstance(mem_piece, Store):
                    mem_lines.append("PMD[_pg] = True")

        # ---- assemble the body ----------------------------------------
        body: list = []
        if (checked or interlocked) and reads:
            conflict = " or ".join(f"_dr == {k(r)}" for r in reads)
            body.append("_dr = st[0]")
            body.append(f"if _dr != -1 and ({conflict}): raise _B")
        body.extend(pre)
        body.extend(mem_lines)
        body.append("_d = st[0]")
        body.append("if _d != -1:")
        body.append("    regs[_d] = st[1]")
        if load_dst is None:
            body.append("    st[0] = -1")
        body.extend(commit)
        if load_dst is not None:
            if interlocked:
                body.append(f"regs[{load_dst}] = _vld")
            body.append(f"st[0] = {load_dst}")
            body.append("st[1] = _vld")

        branches = 1 if flow is not None else 0
        taken_static = 1 if isinstance(flow, (Jump, JumpIndirect)) else 0
        delta = (
            pieces,
            noops,
            1 if load_dst is not None else 0,
            1 if isinstance(mem_piece, Store) else 0,
            branches,
            taken_static,
            1 if word.uses_memory else 0,
            note,
        )
        if ctx.mapped:
            delta += (ctx.translate(pc & _MASK) >> self._page_shift,)
        return _WordIR(body, k, flow, delta)

    # ---- emit helpers -----------------------------------------------------

    @staticmethod
    def _operand(op, k: _Slots) -> str:
        if isinstance(op, Imm):
            return k(op.value)
        return f"regs[{k(op.number)}]"

    @classmethod
    def _emit_cond(cls, piece, k: _Slots) -> str:
        """A ``SetCond``/``CompareBranch`` condition as an expression,
        rendered from its :data:`~repro.isa.operations.COMPARISONS` entry.

        An immediate's XOR transform is applied here, at emit time, so no
        two literals ever meet in one constant-foldable expression; with
        two immediates (or for ``T``/``F``) the outcome is a constant.
        """
        cond, s1, s2 = piece.cond, piece.s1, piece.s2
        expr, xa, xb = COMPARISONS[cond]
        if "{a}" not in expr:
            return expr  # T, F
        if isinstance(s1, Imm) and isinstance(s2, Imm):
            return str(compare(cond, s1.value, s2.value))

        def operand(op, xor: int) -> str:
            if isinstance(op, Imm):
                return k(op.value ^ xor)
            reg = f"regs[{k(op.number)}]"
            return f"({reg} ^ {xor})" if xor else reg

        return expr.format(a=operand(s1, xa), b=operand(s2, xb))

    @classmethod
    def _emit_alu(cls, piece: Alu, idx: int, ovf_enabled: bool, k: _Slots) -> list:
        """Lines computing ``_t{idx}``, rendered from the piece's
        :data:`~repro.isa.operations.ALU_EXPRESSIONS` entry, after a bail
        on its overflow predicate when overflow traps are on.

        Each operand the entry names is read into a local first, so the
        entry's literals only ever meet names; an operand it does not
        name gets no slot.
        """
        op = piece.op
        expr = ALU_EXPRESSIONS[op]
        lines, names = [], {}
        for name, source in (("a", piece.s1), ("b", piece.s2), ("w", piece.dst)):
            if "{%s}" % name not in expr:
                continue
            if op is AluOp.IC and name == "b":
                value = "CPU.lo"  # insert byte's selector, not its s2
            else:
                value = cls._operand(source, k)
            names[name] = f"_{name}{idx}"
            lines.append(f"_{name}{idx} = {value}")
        overflow = OVERFLOW_EXPRESSIONS.get(op)
        if ovf_enabled and overflow is not None:
            lines.append(f"if {overflow.format(**names)}: raise _B")
        lines.append(f"_t{idx} = {expr.format(**names)}")
        return lines

    def _emit_ea(self, ctx: _Context, piece, pre: list, k: _Slots) -> Optional[str]:
        """Emit address computation + bail checks; returns the expression
        of the physical address the reference is made at."""
        size = self._phys.size
        addr = piece.addr
        if isinstance(addr, Absolute):
            ea_val = addr.addr
            if ctx.mapped:
                sysva = ctx.translate(ea_val)
                if sysva is None:
                    return None  # always a segment fault: reference territory
                pre.append(f"_sv = {k(sysva)}")
                return self._emit_page_lookup(pre)
            if not 0 <= ea_val < size:
                return None  # always a bus error: reference territory
            if self._devices is not None and self._devices.claims(ea_val):
                return None  # device register: always reference
            return k(ea_val)
        expr = ADDRESS_EXPRESSIONS[type(addr)]
        fields = {}
        for name in ("base", "index", "disp", "shift"):
            if "{%s}" % name in expr:
                value = getattr(addr, name)
                fields[name] = k(value) if isinstance(value, int) else f"regs[{k(value.number)}]"
        pre.append(f"_ea = {expr.format(**fields)}")
        if ctx.mapped:
            window = dict(zip(("half", "top", "low", "high"), map(k, ctx.window)))
            check = SEGMENT_CHECK.format(a="_ea", to="_sv = ", hole="raise _B", **window)
            pre.extend(check.split("\n"))
            return self._emit_page_lookup(pre)
        pre.append(f"if _ea >= {size}: raise _B")
        if self._devices is not None:
            from ..system.devices import DEV_BASE, DEV_WORDS

            pre.append(f"if {DEV_BASE} <= _ea < {DEV_BASE + DEV_WORDS}: raise _B")
        return "_ea"

    def _emit_page_lookup(self, pre: list) -> str:
        """The off-chip page map on system address ``_sv``: a hole in the
        live map or a frame beyond memory bails; returns ``_pa``."""
        shift = self._page_shift
        pre.extend((
            f"_pg = _sv >> {shift}",
            "_f = PMG(_pg)",
            "if _f is None: raise _B",
            f"_pa = (_f << {shift}) | (_sv & {(1 << shift) - 1})",
            f"if _pa >= {self._phys.size}: raise _B",
        ))
        return "_pa"

    @staticmethod
    def _emit_epilogue(flow, pc: int, k: _Slots) -> list:
        """Next-PC logic: age the two pending-branch slots, then return.

        The two-slot model is exact: entries live at most two words, at
        most one per countdown is live between steps, and when a branch
        in a delay slot creates a same-tick tie the later-appended entry
        both wins the fire and retires the loser -- which is precisely
        what overwriting the slot expresses.
        """
        seq = k(pc + 1)
        if isinstance(flow, Jump):
            return [
                "_p = st[2]",
                f"st[2] = {k(int(flow.target))}",
                "st[3] = -1",
                f"return _p if _p != -1 else {seq}",
            ]
        if isinstance(flow, JumpIndirect):
            return [
                "_p = st[2]",
                "st[2] = st[3]",
                "st[3] = _tgt",
                f"return _p if _p != -1 else {seq}",
            ]
        if isinstance(flow, CompareBranch):
            return [
                "_p = st[2]",
                "if _tk:",
                "    st[4] += 1",
                f"    st[2] = {k(int(flow.target))}",
                "else:",
                "    st[2] = st[3]",
                "st[3] = -1",
                f"return _p if _p != -1 else {seq}",
            ]
        return [
            "_p = st[2]",
            "st[2] = st[3]",
            "st[3] = -1",
            f"return _p if _p != -1 else {seq}",
        ]
