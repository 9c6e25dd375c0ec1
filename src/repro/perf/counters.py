"""Hardware-style counter groups, sampled from per-PC execution counts.

The design splits observability into a **dynamic** part and a **static**
part.  The dynamic part -- maintained while the guest runs -- is just
the :class:`~repro.perf.profiler.Profiler`'s per-PC execution counts
(plus the always-on :class:`~repro.sim.cpu.CpuStats`).  Everything else
is a *static property of the instruction word at an address*: which
operations its pieces perform, which Table 1 bucket each immediate
operand falls into, whether its compare could have ridden on a
condition code set by the preceding word.  :func:`collect` multiplies
those static per-word profiles by the execution counts at sample time,
so adding a counter group costs nothing per executed instruction and
the groups are engine-identical by construction (both engines produce
identical per-PC counts).

Groups::

    pipeline    cycles, words, pieces, noops, stalls, flushes, exceptions
    mix         executed piece operations by name (add, load, cbr-eq, ...)
    immediates  executed immediate operands bucketed per Table 1
    control     branch/compare behaviour and the Table 3 CC-savings analog
    memory      data-memory usage and the section 3.1 free-cycle fraction
    system      page-map and DMA traffic (zeros on a bare machine)
    engine      fast-path compile/bail/invalidation diagnostics

The ``engine`` group is **engine-specific** (the reference stepper has
no bails); every consumer that promises byte-identical output across
engines (``mips-prof``, fingerprints, the perf gate) must exclude it --
see :data:`VOLATILE_GROUPS`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..isa.immediates import TABLE1_ROWS, ConstantClass, classify_constant
from ..isa.pieces import (
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
from ..isa.operations import AluOp
from ..isa.words import InstructionWord

#: groups that differ between execution engines or runs; deterministic
#: consumers (profiles, gates, digests) must drop them
VOLATILE_GROUPS = ("engine",)

#: conditions that test an order relation against zero the way a
#: condition code's N/Z flags would (mirrors Table 3's accounting)
_CC_TESTABLE = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))


@dataclass
class WordProfile:
    """Static observable properties of one instruction word."""

    ops: Counter = field(default_factory=Counter)
    imm: Counter = field(default_factory=Counter)       # ConstantClass -> count
    pieces: int = 0
    noops: int = 0
    uses_memory: bool = False
    compares: int = 0          # compare-and-branch pieces
    setconds: int = 0
    #: registers this word zero-tests with an order/equality compare
    #: (the Table 3 "could a CC have saved this compare" inputs)
    zero_tested: FrozenSet[int] = frozenset()
    #: registers written by ALU operator pieces (CC "set on operations")
    alu_dsts: FrozenSet[int] = frozenset()
    #: registers written by moves/loads (CC "set on moves", VAX class)
    move_dsts: FrozenSet[int] = frozenset()
    #: static direct control-transfer targets
    targets: Tuple[int, ...] = ()


def _imm_operands(piece) -> Iterable[int]:
    """The immediate operand values an executed piece actually consumes."""
    if isinstance(piece, Alu):
        if isinstance(piece.s1, Imm):
            yield piece.s1.value
        # MOV/NOT ignore s2; its slot holds filler, not a constant
        if piece.op not in (AluOp.MOV, AluOp.NOT) and isinstance(piece.s2, Imm):
            yield piece.s2.value
    elif isinstance(piece, (SetCond, CompareBranch)):
        if isinstance(piece.s1, Imm):
            yield piece.s1.value
        if isinstance(piece.s2, Imm):
            yield piece.s2.value
    elif isinstance(piece, MovImm):
        yield piece.value
    elif isinstance(piece, LoadImm):
        yield piece.value


def _zero_tested_reg(piece) -> Optional[int]:
    """The register a compare piece tests against zero, if any."""
    if piece.cond.value not in _CC_TESTABLE:
        return None
    s1, s2 = piece.s1, piece.s2
    if isinstance(s2, Imm) and s2.value == 0 and not isinstance(s1, Imm):
        return s1.number
    if isinstance(s1, Imm) and s1.value == 0 and not isinstance(s2, Imm):
        return s2.number
    return None


def classify_word(word: InstructionWord) -> WordProfile:
    """Build the static profile of one instruction word."""
    profile = WordProfile(uses_memory=word.uses_memory)
    zero_tested = set()
    alu_dsts = set()
    move_dsts = set()
    targets = []
    for piece in word.pieces:
        if isinstance(piece, Noop):
            profile.noops += 1
            profile.ops["nop"] += 1
            continue
        profile.pieces += 1
        if isinstance(piece, Alu):
            profile.ops[piece.op.value] += 1
            if piece.op is AluOp.MOV:
                move_dsts.add(piece.dst.number)
            else:
                alu_dsts.add(piece.dst.number)
        elif isinstance(piece, MovImm):
            profile.ops["movi"] += 1
            move_dsts.add(piece.dst.number)
        elif isinstance(piece, LoadImm):
            profile.ops["lim"] += 1
            move_dsts.add(piece.dst.number)
        elif isinstance(piece, SetCond):
            profile.ops[f"set-{piece.cond.value}"] += 1
            profile.setconds += 1
        elif isinstance(piece, CompareBranch):
            profile.ops[f"cbr-{piece.cond.value}"] += 1
            profile.compares += 1
            tested = _zero_tested_reg(piece)
            if tested is not None:
                zero_tested.add(tested)
            if isinstance(piece.target, int):
                targets.append(piece.target)
        elif isinstance(piece, Jump):
            profile.ops["jump"] += 1
            if isinstance(piece.target, int):
                targets.append(piece.target)
        elif isinstance(piece, JumpIndirect):
            profile.ops["jumpi"] += 1
        elif isinstance(piece, Load):
            profile.ops["load"] += 1
            move_dsts.add(piece.dst.number)
        elif isinstance(piece, Store):
            profile.ops["store"] += 1
        elif isinstance(piece, Trap):
            profile.ops["trap"] += 1
        elif isinstance(piece, Rfs):
            profile.ops["rfs"] += 1
        elif isinstance(piece, ReadSpecial):
            profile.ops["rdspecial"] += 1
        elif isinstance(piece, WriteSpecial):
            profile.ops["wrspecial"] += 1
        else:  # pragma: no cover - decode produces no other piece types
            profile.ops["other"] += 1
        for value in _imm_operands(piece):
            profile.imm[classify_constant(value)] += 1
    profile.zero_tested = frozenset(zero_tested)
    profile.alu_dsts = frozenset(alu_dsts)
    profile.move_dsts = frozenset(move_dsts)
    profile.targets = tuple(targets)
    return profile


def _pct(numerator: float, denominator: float) -> float:
    return round(100.0 * numerator / denominator, 2) if denominator else 0.0


def collect(cpu, *, pagemap=None, dma=None) -> Dict[str, Dict[str, object]]:
    """Sample every counter group from a CPU (and optional system parts).

    The per-PC-derived groups (``mix``, ``immediates``, ``control``)
    need a profiler attached to the CPU *before* the run and come back
    empty otherwise.  Words are resolved through
    the CPU's decode cache, which holds the current word at every
    executed address (self-modified addresses report their final form).

    Behind a page map those groups come back empty too: user processes
    run at virtual PCs that collide with each other's and with the
    kernel's physical PCs in the one decode cache, so a PC names no
    single word, and which word the cache last held depends on the
    engine.
    """
    profiler = cpu.profiler
    stats = cpu.stats

    counts: Dict[int, int] = {}
    if profiler is not None and getattr(cpu.memory, "pagemap", None) is None:
        counts = dict(profiler.counts)
    profiles: Dict[int, WordProfile] = {}
    for pc in counts:
        plan = cpu.step_plan(pc)
        if plan is not None:
            profiles[pc] = classify_word(plan.word)

    mix: Counter = Counter()
    imm: Counter = Counter()
    branch_targets = set()
    for pc, profile in profiles.items():
        c = counts[pc]
        for op, n in profile.ops.items():
            mix[op] += n * c
        for bucket, n in profile.imm.items():
            imm[bucket] += n * c
        branch_targets.update(profile.targets)

    # Table 3's question, asked of the *executed* stream: how many
    # compare pieces test, against zero, a register the immediately
    # preceding word's ALU operator (or move/load) just wrote -- on a
    # CC machine the flags would already hold the answer.  Words that
    # are direct branch targets join control flow from elsewhere, so
    # their compares are never counted as saved.
    compares_executed = 0
    saved_by_operators = 0
    saved_by_moves = 0
    for pc, profile in profiles.items():
        c = counts[pc]
        compares_executed += profile.compares * c
        if not profile.zero_tested or pc in branch_targets:
            continue
        previous = profiles.get(pc - 1)
        if previous is None:
            continue
        if profile.zero_tested & previous.alu_dsts:
            saved_by_operators += c
        elif profile.zero_tested & previous.move_dsts:
            saved_by_moves += c

    imm_total = sum(imm.values())
    imm4 = sum(
        imm.get(bucket, 0)
        for bucket in (
            ConstantClass.ZERO,
            ConstantClass.ONE,
            ConstantClass.TWO,
            ConstantClass.SMALL,
        )
    )
    movi = imm4 + imm.get(ConstantClass.BYTE, 0)

    mem_stats = getattr(getattr(cpu, "memory", None), "stats", None)
    phys = getattr(cpu.memory, "physical", None)
    if mem_stats is None and phys is not None:
        mem_stats = getattr(phys, "stats", None)

    groups: Dict[str, Dict[str, object]] = {
        "pipeline": {
            "cycles": stats.cycles,
            "words": stats.words,
            "pieces": stats.pieces,
            "noops": stats.noops,
            "pieces_per_word": round(stats.pieces / stats.words, 3) if stats.words else 0.0,
            "load_stalls": stats.load_stalls,
            "branch_flush_cycles": stats.branch_flush_cycles,
            "exceptions": stats.exceptions,
        },
        "mix": {op: mix[op] for op in sorted(mix)},
        "immediates": {
            **{bucket.value: imm.get(bucket, 0) for bucket in TABLE1_ROWS},
            "total": imm_total,
            "imm4_coverage_pct": _pct(imm4, imm_total),
            "movi_coverage_pct": _pct(movi, imm_total),
        },
        "control": {
            "branches": stats.branches,
            "branches_taken": stats.branches_taken,
            "taken_pct": _pct(stats.branches_taken, stats.branches),
            "compares_executed": compares_executed,
            "setconds_executed": sum(
                profiles[pc].setconds * counts[pc] for pc in profiles
            ),
            "cc_saved_by_operators": saved_by_operators,
            "cc_saved_by_moves": saved_by_moves,
            "cc_savings_operators_pct": _pct(saved_by_operators, compares_executed),
            "cc_savings_with_moves_pct": _pct(
                saved_by_operators + saved_by_moves, compares_executed
            ),
        },
        "memory": {
            "loads": stats.loads,
            "stores": stats.stores,
            "memory_cycles_used": stats.memory_cycles_used,
            "free_memory_cycles": stats.free_memory_cycles,
            "free_cycle_pct": _pct(stats.free_memory_cycles, stats.words),
            "fetches": mem_stats.fetches if mem_stats is not None else 0,
            "data_reads": mem_stats.reads if mem_stats is not None else 0,
            "data_writes": mem_stats.writes if mem_stats is not None else 0,
        },
        "system": {
            "pagemap_translations": pagemap.stats.translations if pagemap else 0,
            "pagemap_faults": pagemap.stats.faults if pagemap else 0,
            "pagemap_victims_suggested": pagemap.stats.victims_suggested if pagemap else 0,
            "dma_words_moved": dma.words_moved if dma else 0,
            "dma_cycles_used": dma.cycles_used if dma else 0,
            "dma_cycles_offered": dma.cycles_offered if dma else 0,
        },
    }

    engine = cpu._fastpath
    groups["engine"] = {
        "fastpath_compiles": engine.stats.compiles if engine else 0,
        "fastpath_fallbacks": engine.stats.fallbacks if engine else 0,
        "fastpath_bails": engine.stats.bails if engine else 0,
        "fastpath_invalidations": engine.stats.invalidations if engine else 0,
        "fastpath_bursts": engine.stats.bursts if engine else 0,
        # dispatch accounting: the whole group stays volatile because
        # the reference stepper has no analogue, but each counter is
        # deterministic per workload
        "word_dispatches": engine.stats.word_dispatches if engine else 0,
        "ref_steps": engine.stats.ref_steps if engine else 0,
    }
    return groups


def stable_groups(groups: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """The engine-identical subset (drops :data:`VOLATILE_GROUPS`)."""
    return {name: dict(values) for name, values in groups.items() if name not in VOLATILE_GROUPS}


def merge_groups(
    all_groups: Iterable[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Sum counter groups across runs, recomputing the derived ratios.

    Used by corpus-wide profiling: per-workload groups shard over farm
    workers, and the merge of the shards equals the merge of a serial
    run because summation is order-independent.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for groups in all_groups:
        for name, values in groups.items():
            bucket = merged.setdefault(name, {})
            for key, value in values.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                bucket[key] = bucket.get(key, 0) + value
    # re-derive every ratio from the merged integer counters
    pipeline = merged.get("pipeline", {})
    if pipeline.get("words"):
        pipeline["pieces_per_word"] = round(pipeline.get("pieces", 0) / pipeline["words"], 3)
    immediates = merged.get("immediates", {})
    if "total" in immediates:
        imm4 = sum(
            immediates.get(b.value, 0)
            for b in (ConstantClass.ZERO, ConstantClass.ONE, ConstantClass.TWO, ConstantClass.SMALL)
        )
        movi = imm4 + immediates.get(ConstantClass.BYTE.value, 0)
        immediates["imm4_coverage_pct"] = _pct(imm4, immediates["total"])
        immediates["movi_coverage_pct"] = _pct(movi, immediates["total"])
    control = merged.get("control", {})
    if control:
        control["taken_pct"] = _pct(control.get("branches_taken", 0), control.get("branches", 0))
        control["cc_savings_operators_pct"] = _pct(
            control.get("cc_saved_by_operators", 0), control.get("compares_executed", 0)
        )
        control["cc_savings_with_moves_pct"] = _pct(
            control.get("cc_saved_by_operators", 0) + control.get("cc_saved_by_moves", 0),
            control.get("compares_executed", 0),
        )
    memory = merged.get("memory", {})
    if "free_memory_cycles" in memory and pipeline.get("words"):
        memory["free_cycle_pct"] = _pct(memory["free_memory_cycles"], pipeline["words"])
    return {name: dict(values) for name, values in merged.items()}
