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
first word with a given text pays one ``exec()``, compiled with unique
sentinel constants whose positions in the code object's ``co_consts``
are recorded; every later word is ``code.replace(co_consts=...)`` with
its own values -- bytecode identical to compiling its literal source,
at a fraction of the cost.  Emitters therefore never let two literals
meet in one constant-foldable expression (e.g. an immediate's sign bias
is applied at emit time), and template compilation asserts that every
slot survived as its own constant.

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
  the written address against the set of compiled addresses, and all
  reference-path writes (including device DMA and loader pokes) report
  through :attr:`PhysicalMemory.watch_hook`.

Supported execution contexts: mapping disabled, over a bare
:class:`~repro.sim.memory.PhysicalMemory` or the physical side of a
``MappedMemory`` (device-window references bail).  Mapped (user-space)
execution falls back to the reference stepper word by word.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import FunctionType
from typing import Dict, Optional

from ..isa.bits import u32
from ..isa.encoding import decode
from ..isa.operations import AluOp, Comparison, alu_overflows
from ..isa.pieces import (
    Absolute,
    Alu,
    BaseIndex,
    BaseShifted,
    CompareBranch,
    Displacement,
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
from ..isa.registers import RA, SpecialReg

class _Bail(Exception):
    """Raised by a handler, pre-mutation, to punt to the reference stepper."""


#: pre-built instance: raising it skips exception construction
_BAIL = _Bail("fast path bail")

#: cache marker for words that must always run on the reference stepper
_FALLBACK = object()

#: ALU ops participating in overflow detection (mirrors alu_overflows)
_OVF_OPS = (AluOp.ADD, AluOp.SUB, AluOp.RSUB)

_SIGN = 2147483648
_MASK = 4294967295

#: comparisons on the raw (unsigned) operand values
_UNSIGNED_COMPARES = {
    Comparison.EQ: "==",
    Comparison.NE: "!=",
    Comparison.LO: "<",
    Comparison.LS: "<=",
    Comparison.HI: ">",
    Comparison.HS: ">=",
}
#: signed-compare trick: s32(a) < s32(b)  <=>  (a^SIGN) < (b^SIGN)
_SIGNED_COMPARES = {
    Comparison.LT: "<",
    Comparison.LE: "<=",
    Comparison.GT: ">",
    Comparison.GE: ">=",
}
#: bit tests: comparison -> (test a & ~b rather than a & b, result op 0)
_BIT_TESTS = {
    Comparison.BC: (False, "=="),
    Comparison.BS: (False, "!="),
    Comparison.NBC: (True, "=="),
    Comparison.NBS: (True, "!="),
}

#: first sentinel constant a template is compiled with: far above every
#: value a handler computes with, so no slot collides with a real literal
_SENTINEL = 1 << 62


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
    templates: int = 0       # handler templates compiled (one exec() each)
    fallbacks: int = 0       # words screened out at compile time
    bails: int = 0           # handlers that punted pre-mutation at run time
    invalidations: int = 0   # compiled words dropped (SMC, DMA, loader pokes)
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
    """Handler and stats-delta caches for one execution context.

    The context key is the surprise register's privilege and
    overflow-enable bits; mapping-enabled contexts are never compiled.
    Handler caches are keyed by word address.
    """

    __slots__ = ("key", "handlers", "deltas")

    def __init__(self, key: int):
        self.key = key
        self.handlers: Dict[int, object] = {}
        #: address -> (pieces, noops, loads, stores, branches,
        #:             taken_static, mem_used, note)
        self.deltas: Dict[int, tuple] = {}


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
        self._supported = physical is not None and hasattr(physical, "_words")
        self._contexts: Dict[int, _Context] = {}
        self._compiled_pcs = set()
        self._disabled = False
        #: steps completed by the current/last run() call *before* any
        #: exception escaped -- callers use this to account for steps
        #: when a reference step raises (halt, hazard violation, ...)
        self.last_run_steps = 0
        self.stats = EngineStats()
        self._st = [-1, 0, -1, -1, 0]
        #: template text -> (code, co_consts, slot indices into co_consts)
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
        contexts = self._contexts
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
            if (
                supported
                and not sv & 8  # mapping off: translation is reference territory
                and not cpu._forced_stream
                and not (cpu.interrupt_line and sv & 2)
            ):
                key = sv & 5  # privilege | overflow-enable
                ctx = contexts.get(key)
                if ctx is None:
                    ctx = _Context(key)
                    contexts[key] = ctx
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
                # the word the burst would not touch: a fallback or
                # bailed word -- exactly one precise step
                estats.ref_steps += 1
                cpu.step()
                steps += 1
            elif supported and sv & 8:
                # mapped (user-space) execution: reference-step until the
                # next surprise transition flips mapping off again; the
                # stepper itself handles interrupts and forced streams
                while (
                    steps < max_steps
                    and (cycle_limit is None or stats.cycles < cycle_limit)
                    and surprise.value & 8
                ):
                    self.last_run_steps = steps
                    estats.ref_steps += 1
                    cpu.step()
                    steps += 1
            else:
                # interrupt delivery, a forced return stream, or an
                # unsupported memory system: one precise step
                estats.ref_steps += 1
                cpu.step()
                steps += 1
        self.last_run_steps = steps
        return steps

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
                if h is _FALLBACK:
                    break
                try:
                    npc = h(regs, st)
                except _Bail:
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
    # invalidation (self-modifying code, DMA, loader pokes)
    # ------------------------------------------------------------------

    def _invalidate(self, addr: int) -> None:
        """Drop the compiled handler(s) at ``addr`` in every context.

        Stats deltas are intentionally left behind: executions counted
        before the invalidation belong to the old word and must flush
        against its old delta; a recompile overwrites the entry.
        """
        self.stats.invalidations += 1
        for ctx in self._contexts.values():
            ctx.handlers.pop(addr, None)
        self._compiled_pcs.discard(addr)

    def _on_external_write(self, addr: int) -> None:
        if addr in self._compiled_pcs:
            self._invalidate(addr)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def _compile(self, ctx: _Context, pc: int):
        """Compile the word at ``pc`` for ``ctx``; cache and return it."""
        handler = self._try_compile(ctx, pc)
        if handler is None:
            handler = _FALLBACK
            self.stats.fallbacks += 1
        else:
            self.stats.compiles += 1
        ctx.handlers[pc] = handler
        self._compiled_pcs.add(pc)
        return handler

    def _globals(self) -> Dict[str, object]:
        """The globals of every generated handler: built once per engine."""
        env = {
            "_B": _BAIL,
            "MW": self._phys._words,
            "MWG": self._phys._words.get,
            "CPU": self.cpu,
            "OVF": alu_overflows,
            "FPCS": self._compiled_pcs,
            "INVAL": self._invalidate,
        }
        for op in _OVF_OPS:
            env[f"OP_{op.name}"] = op
        return env

    def _word_template(self, ctx: _Context, pc: int):
        """The per-word handler of ``pc`` as ``(template source, IR)``.

        ``source.format(*ir.slots)`` is the handler's literal source;
        ``None`` when the word belongs to the reference stepper.
        """
        ir = self._emit_word(ctx, pc)
        if ir is None:
            return None
        body = ir.body + self._emit_epilogue(ir.flow, pc, ir.slots)
        return "def _h(regs, st):\n" + "\n".join("    " + line for line in body), ir

    def _try_compile(self, ctx: _Context, pc: int):
        word = self._word_template(ctx, pc)
        if word is None:
            return None
        src, ir = word
        template = self._templates.get(src)
        if template is None:
            template = self._templates[src] = self._compile_template(src, len(ir.slots))
        code, consts, where = template
        consts = list(consts)
        for i, value in zip(where, ir.slots):
            consts[i] = value
        ctx.deltas[pc] = ir.delta
        return FunctionType(code.replace(co_consts=tuple(consts)), self._env)

    def _compile_template(self, src: str, nslots: int) -> tuple:
        """One ``exec()``: compile ``src`` with a unique sentinel per slot
        and find where each sentinel landed in ``co_consts``."""
        self.stats.templates += 1
        sentinels = range(_SENTINEL, _SENTINEL + nslots)
        namespace: Dict[str, object] = {}
        exec(src.format(*sentinels), namespace)  # noqa: S102 - generating threaded-code handlers
        code = namespace["_h"].__code__
        consts = code.co_consts
        for sentinel in sentinels:
            # a slot folded into a neighbouring literal would leave every
            # word of this template running the first word's constant
            assert sentinel in consts, f"slot folded away in template:\n{src}"
        return code, consts, tuple(consts.index(s) for s in sentinels)

    def _emit_word(self, ctx: _Context, pc: int):
        """Emit the straight-line IR of the word at ``pc``.

        Returns a :class:`_WordIR` (body sans next-PC epilogue) or
        ``None`` when the word belongs to the reference stepper.
        """
        from .cpu import HazardMode  # local import: cpu.py imports us lazily

        cpu = self.cpu
        phys = self._phys
        if not 0 <= pc < phys.size:
            return None  # reference fetch raises the BusError
        bits = phys._words.get(pc, 0)
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
        ovf_enabled = bool(ctx.key & 4)

        k = _Slots()        # word-specific integers, as template slots
        pre: list = []      # pure evaluation + all bail checks
        commit: list = []   # register/special commits (post-deferred)
        reads = sorted(r.number for r in word.reads())
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
                lines = self._emit_alu(piece, idx, ovf_enabled, k)
                if lines is None:
                    return None
                pre.extend(lines)
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
            ea = self._emit_ea(mem_piece, pre, k)
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
        return _WordIR(body, k, flow, delta)

    # ---- emit helpers -----------------------------------------------------

    @staticmethod
    def _operand(op, k: _Slots) -> str:
        if isinstance(op, Imm):
            return k(op.value)
        return f"regs[{k(op.number)}]"

    @classmethod
    def _emit_cond(cls, piece, k: _Slots) -> str:
        """A ``SetCond``/``CompareBranch`` condition as an expression.

        Immediates are pre-combined here, so no two literals ever meet in
        one constant-foldable expression.
        """
        cond, s1, s2 = piece.cond, piece.s1, piece.s2
        if cond is Comparison.T:
            return "True"
        if cond is Comparison.F:
            return "False"
        rel = _UNSIGNED_COMPARES.get(cond)
        if rel is not None:
            return f"{cls._operand(s1, k)} {rel} {cls._operand(s2, k)}"
        rel = _SIGNED_COMPARES.get(cond)
        if rel is not None:

            def biased(op) -> str:
                if isinstance(op, Imm):
                    return k(op.value ^ _SIGN)
                return f"(regs[{k(op.number)}] ^ {_SIGN})"

            return f"{biased(s1)} {rel} {biased(s2)}"
        invert, rel = _BIT_TESTS[cond]
        if isinstance(s1, Imm) and isinstance(s2, Imm):
            mask = s2.value ^ _MASK if invert else s2.value
            return f"{k(s1.value & mask)} {rel} 0"
        if isinstance(s2, Imm):
            mask = k(s2.value ^ _MASK if invert else s2.value)
        elif invert:
            mask = f"(regs[{k(s2.number)}] ^ {_MASK})"
        else:
            mask = f"regs[{k(s2.number)}]"
        return f"({cls._operand(s1, k)} & {mask}) {rel} 0"

    def _emit_alu(self, piece: Alu, idx: int, ovf_enabled: bool, k: _Slots) -> Optional[list]:
        lines = [f"_a{idx} = {self._operand(piece.s1, k)}"]
        a = f"_a{idx}"
        op = piece.op
        if op is AluOp.MOV:
            lines.append(f"_t{idx} = {a}")
            return lines
        if op is AluOp.NOT:
            lines.append(f"_t{idx} = {a} ^ 4294967295")
            return lines
        if op is AluOp.IC:
            lines.append("_sh = (CPU.lo & 3) * 8")
            lines.append(
                f"_t{idx} = (regs[{k(piece.dst.number)}] & ~(255 << _sh) & 4294967295)"
                f" | (({a} & 255) << _sh)"
            )
            return lines
        lines.append(f"_b{idx} = {self._operand(piece.s2, k)}")
        b = f"_b{idx}"
        if ovf_enabled and op in _OVF_OPS:
            lines.append(f"if OVF(OP_{op.name}, {a}, {b}): raise _B")
        if op is AluOp.ADD:
            expr = f"({a} + {b}) & 4294967295"
        elif op is AluOp.SUB:
            expr = f"({a} - {b}) & 4294967295"
        elif op is AluOp.RSUB:
            expr = f"({b} - {a}) & 4294967295"
        elif op is AluOp.AND:
            expr = f"{a} & {b}"
        elif op is AluOp.OR:
            expr = f"{a} | {b}"
        elif op is AluOp.XOR:
            expr = f"{a} ^ {b}"
        elif op is AluOp.SLL:
            expr = f"({a} << ({b} & 31)) & 4294967295"
        elif op is AluOp.SRL:
            expr = f"{a} >> ({b} & 31)"
        elif op is AluOp.SRA:
            expr = (
                f"(({a} - 4294967296) >> ({b} & 31)) & 4294967295"
                f" if {a} & 2147483648 else {a} >> ({b} & 31)"
            )
        elif op is AluOp.XC:
            expr = f"({b} >> (({a} & 3) * 8)) & 255"
        elif op is AluOp.MSTEP:
            expr = f"({a} * 2 + {b}) & 4294967295"
        elif op is AluOp.DSTEP:
            lines.append(f"_sh = ({a} << 1) & 4294967295")
            lines.append(
                f"_t{idx} = (_sh - {b}) | 1 if _sh >= {b} else _sh & 4294967294"
            )
            return lines
        else:
            return None
        lines.append(f"_t{idx} = {expr}")
        return lines

    def _emit_ea(self, piece, pre: list, k: _Slots) -> Optional[str]:
        """Emit effective-address computation + bail checks; returns its name."""
        size = self._phys.size
        addr = piece.addr
        ea = "_ea"
        if isinstance(addr, Absolute):
            ea_val = addr.addr
            if not 0 <= ea_val < size:
                return None  # always a bus error: reference territory
            if self._devices is not None and self._devices.claims(ea_val):
                return None  # device register: always reference
            return k(ea_val)
        if isinstance(addr, Displacement):
            if addr.disp == 0:
                pre.append(f"{ea} = regs[{k(addr.base.number)}]")
            else:
                pre.append(
                    f"{ea} = (regs[{k(addr.base.number)}] + {k(addr.disp)}) & 4294967295"
                )
        elif isinstance(addr, BaseIndex):
            pre.append(
                f"{ea} = (regs[{k(addr.base.number)}] + regs[{k(addr.index.number)}])"
                " & 4294967295"
            )
        elif isinstance(addr, BaseShifted):
            pre.append(f"{ea} = regs[{k(addr.base.number)}] >> {k(addr.shift)}")
        else:
            return None
        pre.append(f"if {ea} >= {size}: raise _B")
        if self._devices is not None:
            from ..system.devices import DEV_BASE, DEV_WORDS

            pre.append(f"if {DEV_BASE} <= {ea} < {DEV_BASE + DEV_WORDS}: raise _B")
        return ea

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
