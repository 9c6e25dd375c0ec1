"""Differential tests: the fast-path engine vs the reference stepper.

The contract of :mod:`repro.sim.fastpath` is bit-for-bit equivalence
with :meth:`repro.sim.cpu.Cpu.step` across every hazard mode: identical
registers, memory, output, statistics, and fault behaviour.  These
tests run the same programs through both and compare complete state
fingerprints.
"""

import dis
from dataclasses import asdict

import pytest

from repro.compiler import compile_source
from repro.isa.encoding import encode
from repro.isa.operations import AluOp, Comparison
from repro.isa.pieces import (
    Absolute,
    Alu,
    CompareBranch,
    Imm,
    MovImm,
    Noop,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from repro.isa.registers import Reg, SpecialReg
from repro.isa.words import InstructionWord
from repro.mjlang import compile_minijava
from repro.perf.baseline import GATE_PROGRAMS
from repro.reorg import OptLevel
from repro.sim import HazardMode, HazardViolation, Machine, state_fingerprint
from repro.sim.cpu import Cpu
from repro.sim.faults import OverflowTrap, TrapInstruction
from repro.sim.fastpath import _FALLBACK
from repro.sim.machine import run_source
from repro.sim.memory import PhysicalMemory
from repro.system.kernel import Kernel
from repro.workloads import CORPUS, MINIJAVA_CORPUS

#: a fast-running cross-section of the corpus (control flow, recursion,
#: byte/string handling, memory traffic, input consumption)
PROGRAMS = ("scanner", "strings", "sort", "calc", "fib_iterative")

MODES = (HazardMode.BARE, HazardMode.CHECKED, HazardMode.INTERLOCKED)


def _run_pair(program, mode, inputs=()):
    """Run fast and reference instances; return both machines."""
    machines = []
    for fast in (True, False):
        machine = Machine(program, hazard_mode=mode, inputs=list(inputs))
        machine.run(60_000_000, fast=fast)
        machines.append(machine)
    return machines


def _assert_identical(fast, ref):
    assert state_fingerprint(fast.cpu) == state_fingerprint(ref.cpu)
    assert fast.output == ref.output
    assert fast.char_output == ref.char_output
    assert fast.memory._words == ref.memory._words
    fstats, rstats = fast.memory.stats, ref.memory.stats
    assert (fstats.reads, fstats.writes, fstats.fetches) == (
        rstats.reads,
        rstats.writes,
        rstats.fetches,
    )


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", PROGRAMS)
def test_differential_corpus(name, mode):
    """Fast path and reference stepper agree on the workload corpus.

    ``INTERLOCKED`` runs naive code order (the hardware-interlock
    ablation's configuration); the other modes run scheduled code.
    """
    opt = OptLevel.NONE if mode is HazardMode.INTERLOCKED else OptLevel.BRANCH_DELAY
    program = compile_source(CORPUS[name], opt_level=opt).program
    fast, ref = _run_pair(program, mode, inputs=[7, 3, 9])
    _assert_identical(fast, ref)


HAZARD_SOURCE = """
        start:  mov #7, r1
                ld @val, r1
                mov r1, r2      ; reads r1 in its load delay slot
                trap #0
        val:    .word 42
"""


def test_checked_mode_raises_at_same_pc_through_batched_loop():
    """CHECKED still raises HazardViolation, at the same PC, when batched."""
    results = []
    for fast in (True, False):
        with pytest.raises(HazardViolation):
            run_source(HAZARD_SOURCE, hazard_mode=HazardMode.CHECKED)
        machine = Machine(
            __import__("repro.asm.assembler", fromlist=["assemble"]).assemble(
                HAZARD_SOURCE
            ),
            hazard_mode=HazardMode.CHECKED,
        )
        with pytest.raises(HazardViolation):
            machine.run(fast=fast)
        results.append(machine)
    fast_m, ref_m = results
    assert fast_m.cpu.pc == ref_m.cpu.pc
    assert state_fingerprint(fast_m.cpu) == state_fingerprint(ref_m.cpu)


READER_SOURCE = """
        start:  trap #3
                trap #1
                trap #3
                trap #1
                trap #3
                trap #1
                trap #0
"""


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
def test_input_queue_exhaustion_returns_zero(fast):
    """Trap #3 beyond the queued inputs reads zero (and popleft is O(1))."""
    from repro.asm.assembler import assemble

    machine = Machine(assemble(READER_SOURCE), inputs=[5])
    machine.run(fast=fast)
    assert machine.output == [5, 0, 0]
    assert len(machine.inputs) == 0


SELF_MODIFY_SOURCE = """
        start:  mov #0, r5
        loop:   {first}         ; overwritten with `movi #2,r1` mid-run
                trap #1
                ld @patch, r2
                nop
                st r2, @loop
                add r5, #1, r5
                blo r5, #2, loop
                nop
                trap #0
        patch:  .word 0
"""


POKE_SOURCE = """
        start:  mov #0, r5
        loop:   movi #1, r1     ; poked to `movi #2,r1` between passes
                trap #1
                add r5, #1, r5
                blo r5, #2, loop
                nop
                trap #0
"""
#: words POKE_SOURCE runs before its second pass reaches ``loop``
POKE_FIRST_PASS = 6


@pytest.mark.parametrize(
    "source,poke",
    (
        (SELF_MODIFY_SOURCE.format(first="mov #1, r1"), False),
        (SELF_MODIFY_SOURCE.format(first="movi #1, r1"), False),
        (POKE_SOURCE, True),
    ),
    ids=("other-template", "same-template", "mid-run-poke"),
)
def test_self_modifying_code_invalidates_compiled_handlers(source, poke):
    """A write over an already-executed word takes effect identically.

    In the first two cases the guest's own store rewrites ``loop``.
    ``movi #1, r1`` and its replacement ``movi #2, r1`` share one handler
    template: the recompiled word must still see its own constant, so the
    template cache is keyed by neither address nor value.  In
    ``mid-run-poke`` the program never stores; the host pokes ``loop``
    between passes, the path DMA and loader writes take through the
    memory watch hook.
    """
    from repro.asm.assembler import assemble

    program = assemble(source)
    patched_bits = encode(InstructionWord.single(MovImm(2, Reg(1))))
    machines = []
    for fast in (True, False):
        machine = Machine(program)
        if poke:
            machine.run_steps(POKE_FIRST_PASS, fast=fast)
            machine.memory.poke(program.symbol("loop"), patched_bits)
        else:
            machine.memory.poke(program.symbol("patch"), patched_bits)
        machine.run(fast=fast)
        machines.append(machine)
    fast_m, ref_m = machines
    assert fast_m.output == [1, 2]
    _assert_identical(fast_m, ref_m)
    assert fast_m.cpu.fastpath().stats.invalidations >= 1


@pytest.mark.parametrize(
    "quantum,max_frames", ((0, None), (700, None), (500, 8)),
    ids=("run-to-exit", "preemptive", "paging-pressure"),
)
def test_kernel_differential(quantum, max_frames):
    """Batched Kernel.run is exact: steps, timer quanta, paging, output."""
    programs = [
        compile_source(CORPUS[name]).program for name in ("fib_iterative", "calc")
    ]
    kernels = []
    for fast in (True, False):
        kernel = Kernel(quantum=quantum, inputs=[5, 6], max_frames=max_frames)
        for program in programs:
            kernel.add_process(program)
        kernel.run(fast=fast)
        kernels.append(kernel)
    fast_k, ref_k = kernels
    assert state_fingerprint(fast_k.cpu) == state_fingerprint(ref_k.cpu)
    assert fast_k.steps_run == ref_k.steps_run
    assert fast_k.physical._words == ref_k.physical._words
    assert fast_k.pagemap.stats.__dict__ == ref_k.pagemap.stats.__dict__
    fstats, rstats = fast_k.physical.stats, ref_k.physical.stats
    assert (fstats.reads, fstats.writes, fstats.fetches) == (
        rstats.reads,
        rstats.writes,
        rstats.fetches,
    )
    for pid in range(len(programs)):
        assert fast_k.output(pid) == ref_k.output(pid)
        assert fast_k.process_state(pid) == ref_k.process_state(pid)


# ---------------------------------------------------------------------------
# dispatch accounting: every fast-engine word is a handler dispatch or a
# reference step
# ---------------------------------------------------------------------------

#: fast-engine reference steps per gate workload: its traps, plus every
#: word a burst hands back to the reference stepper
GATE_REF_STEPS = {
    "calc": 5,
    "fib_iterative": 3,
    "fib_recursive": 3,
    "hashsym": 7,
    "logic": 7,
    "mj_list": 11,
    "mj_shapes": 9,
    "mj_tree": 11,
    "scanner": 9,
    "sieve": 5,
    "sort": 9,
    "strings": 9,
    "vlsi_rects": 5,
    "wordcount": 7,
}


def test_gate_workloads_pin_reference_steps():
    """Each gate workload's words split exactly into handler dispatches
    and reference steps, and the reference steps are pinned: a word that
    newly falls back to the reference stepper fails here, not only as a
    slowdown."""
    assert sorted(GATE_REF_STEPS) == sorted(GATE_PROGRAMS)
    for name in GATE_PROGRAMS:
        if name in MINIJAVA_CORPUS:
            program = compile_minijava(MINIJAVA_CORPUS[name]).program
        else:
            program = compile_source(CORPUS[name]).program
        machine = Machine(program)
        words = machine.run(30_000_000).words
        stats = machine.cpu.fastpath().stats
        assert stats.ref_steps == GATE_REF_STEPS[name], name
        assert stats.word_dispatches + stats.ref_steps == words, name


# ---------------------------------------------------------------------------
# handler templates: every handler is its own literal source, compiled
# ---------------------------------------------------------------------------


def _opcodes(fn):
    return [(i.opname, i.argval) for i in dis.get_instructions(fn)]


def _assert_handlers_are_literal_source(engine, every_word=True) -> int:
    """Each compiled handler is bytecode-identical to its template rendered
    with its own slot values and compiled; returns how many were checked.

    ``every_word=False`` checks the first word of each template only.
    """
    checked = 0
    seen = set()
    for ctx in engine._contexts.values():
        for pc, handler in ctx.handlers.items():
            if handler is _FALLBACK:
                continue
            src, ir = engine._word_template(ctx, pc)
            if not every_word and src in seen:
                continue
            seen.add(src)
            namespace = {}
            exec(src.format(*ir.slots), namespace)
            assert _opcodes(handler) == _opcodes(namespace["_h"]), (pc, src, ir.slots)
            checked += 1
    return checked


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_template_handlers_match_literal_source(mode):
    """Every word the corpus compiles (all of it bare, the cross-section
    under the hazard modes) runs the exact bytecode of its literal source,
    while far fewer templates than words are compiled."""
    opt = OptLevel.NONE if mode is HazardMode.INTERLOCKED else OptLevel.BRANCH_DELAY
    names = sorted({**CORPUS, **MINIJAVA_CORPUS}) if mode is HazardMode.BARE else PROGRAMS
    compiles = templates = 0
    for name in names:
        if name in MINIJAVA_CORPUS:
            program = compile_minijava(MINIJAVA_CORPUS[name], opt_level=opt).program
        else:
            program = compile_source(CORPUS[name], opt_level=opt).program
        machine = Machine(program, hazard_mode=mode, inputs=[7, 3, 9])
        machine.run(60_000_000)
        engine = machine.cpu.fastpath()
        # the corpus never rewrites its code, so every compile is live
        assert _assert_handlers_are_literal_source(engine) == engine.stats.compiles
        compiles += engine.stats.compiles
        templates += engine.stats.templates
    assert 0 < templates < compiles / 4


# ---------------------------------------------------------------------------
# exhaustive op level: every ALU op and comparison over edge values
# ---------------------------------------------------------------------------

EDGES = (0, 1, 15, 16, 255, 2**31 - 1, 2**31, 2**32 - 1)
#: register contents at reset: r0-r7 hold EDGES, r8/r9 the shift amounts
#: 31 and 32 (r0 doubles as shift amount 0)
PRELOAD = EDGES + (31, 32)
OPERANDS = tuple(Reg(n) for n in range(len(EDGES))) + tuple(
    Imm(v) for v in EDGES if v <= 15
)
SHIFT_AMOUNTS = (Reg(0), Reg(8), Reg(9), Imm(0))
RESULT = Reg(12)
#: case i stores its outcome at RESULTS + i
RESULTS = 1 << 20


def _alu_cases():
    """(label, pieces) per ALU case; the pieces leave the result in RESULT."""
    for op in AluOp:
        if op is AluOp.IC:
            for s1 in OPERANDS:
                for selector in OPERANDS:
                    for prior in range(len(EDGES)):
                        yield f"ic {s1} lo={selector} into {EDGES[prior]}", [
                            WriteSpecial(SpecialReg.LO, selector),
                            Alu(AluOp.MOV, Reg(prior), Imm(0), RESULT),
                            Alu(op, s1, Imm(0), RESULT),
                        ]
        elif op in (AluOp.MOV, AluOp.NOT):
            for s1 in OPERANDS:
                yield f"{op.value} {s1}", [Alu(op, s1, Imm(0), RESULT)]
        else:
            shift = op in (AluOp.SLL, AluOp.SRL, AluOp.SRA)
            for s1 in OPERANDS:
                for s2 in SHIFT_AMOUNTS if shift else OPERANDS:
                    yield f"{op.value} {s1}, {s2}", [Alu(op, s1, s2, RESULT)]


def _build_cases(family):
    """One program packing every case of ``family``: its words and labels.

    A compare-and-branch case leaves 1 in RESULT when taken (the delay
    slot runs, the fall-through word is skipped) and 0 when not.
    """
    words, labels = [], []
    for label, pieces in _alu_cases() if family == "alu" else ():
        words.extend(pieces)
        labels.append(label)
        words.append(Store(Absolute(RESULTS + len(labels) - 1), RESULT))
    for cond in Comparison if family != "alu" else ():
        for s1 in OPERANDS:
            for s2 in OPERANDS:
                if family == "setcond":
                    words.append(SetCond(cond, s1, s2, RESULT))
                else:
                    words.append(CompareBranch(cond, s1, s2, len(words) + 3))
                    words.append(MovImm(1, RESULT))
                    words.append(MovImm(0, RESULT))
                labels.append(f"{family} {cond.value} {s1}, {s2}")
                words.append(Store(Absolute(RESULTS + len(labels) - 1), RESULT))
    words.append(Noop())
    words.append(Trap(0))
    return [InstructionWord.single(piece) for piece in words], labels


def _run_cases(words, overflow_traps, fast):
    """Run a case program to its final trap; returns the CPU and the
    address of every overflow trap taken (each resumes past its word)."""
    cpu = Cpu(PhysicalMemory())
    for addr, word in enumerate(words):
        cpu.memory.poke(addr, encode(word, addr))
    cpu.regs[: len(PRELOAD)] = PRELOAD
    cpu.surprise.overflow_traps_enabled = overflow_traps
    run = cpu.fastpath().run if fast else cpu.run
    trapped = []
    while True:
        try:
            run(2 * len(words))
        except TrapInstruction:
            return cpu, trapped
        except OverflowTrap:
            trapped.append(cpu.pc)
            cpu.pc += 1
            continue
        pytest.fail("case program ran past its final trap")


@pytest.mark.parametrize("overflow_traps", (False, True), ids=("ovf-off", "ovf-on"))
@pytest.mark.parametrize("family", ("alu", "setcond", "branch"))
def test_exhaustive_ops_match_reference(family, overflow_traps):
    """No op-level divergence exists: registers, ``lo``, trap outcomes,
    CpuStats and every case's result agree with the reference stepper."""
    words, labels = _build_cases(family)
    fast, fast_traps = _run_cases(words, overflow_traps, fast=True)
    ref, ref_traps = _run_cases(words, overflow_traps, fast=False)
    diverged = [
        label
        for i, label in enumerate(labels)
        if fast.memory.peek(RESULTS + i) != ref.memory.peek(RESULTS + i)
    ]
    assert not diverged, diverged[:10]
    assert fast_traps == ref_traps
    assert bool(ref_traps) == (overflow_traps and family == "alu")
    assert state_fingerprint(fast) == state_fingerprint(ref)
    assert asdict(fast.stats) == asdict(ref.stats)
    assert fast.memory._words == ref.memory._words
    fstats, rstats = fast.memory.stats, ref.memory.stats
    assert (fstats.reads, fstats.writes, fstats.fetches) == (
        rstats.reads,
        rstats.writes,
        rstats.fetches,
    )
    engine = fast.fastpath()
    assert engine.stats.fallbacks == 1  # only the final trap
    # the corpus test checks every word; here, every template once --
    # including the immediate-only forms the corpus never emits
    checked = _assert_handlers_are_literal_source(engine, every_word=False)
    assert checked == engine.stats.templates
