"""Differential tests: the fast-path engine vs the reference stepper.

The contract of :mod:`repro.sim.fastpath` is bit-for-bit equivalence
with :meth:`repro.sim.cpu.Cpu.step` across every hazard mode: identical
registers, memory, output, statistics, and fault behaviour.  These
tests run the same programs through both and compare complete state
fingerprints.
"""

import dis
import gc
import weakref
from dataclasses import asdict

import pytest

from repro.ccmachine import Alu as CcAlu
from repro.ccmachine import (
    CcAluOp,
    CcImm,
    CcMachine,
    CcMachineError,
    CcReg,
    Halt,
    Move,
    SysWrite,
    compile_cc_source,
    resolve,
)
from repro.compiler import compile_source
from repro.fuzz.case import make_case
from repro.isa.addressing import segment_translator, segment_window
from repro.isa.bits import s32
from repro.isa.encoding import encode
from repro.isa.operations import AluOp, Comparison, alu_evaluate
from repro.isa.pieces import (
    Absolute,
    Alu,
    BaseIndex,
    BaseShifted,
    CompareBranch,
    Displacement,
    Imm,
    Load,
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
from repro.sim import HazardMode, HazardViolation, Machine, fastpath, state_fingerprint
from repro.sim.cpu import Cpu
from repro.sim.faults import BusError, OverflowTrap, PageFault, TrapInstruction
from repro.sim.fastpath import _FALLBACK
from repro.sim.machine import run_source
from repro.sim.memory import PhysicalMemory
from repro.system.kernel import Kernel
from repro.system.mapping import PAGE_SHIFT, PAGE_WORDS, MappedMemory
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


def _kernel_snapshot(kernel):
    """Everything a kernel run leaves observable: CPU state, physical
    memory and its access counters, the page map with its referenced and
    dirty bits, clock hand and pending fault, the disk, and each
    process's output and state."""
    pagemap, disk, physical = kernel.pagemap, kernel.disk, kernel.physical
    return {
        "cpu": state_fingerprint(kernel.cpu),
        "steps_run": kernel.steps_run,
        "halted": kernel.halted,
        "memory": dict(physical._words),
        "memory_stats": (physical.stats.reads, physical.stats.writes, physical.stats.fetches),
        "entries": dict(pagemap.entries),
        "referenced": dict(pagemap.referenced),
        "dirty": dict(pagemap.dirty),
        "clock_hand": pagemap._clock_hand,
        "pending_fault": pagemap.pending_fault,
        "pagemap_stats": dict(pagemap.stats.__dict__),
        "disk_pages": {page: list(words) for page, words in disk.pages.items()},
        "disk": (disk.copies, disk.writebacks),
        "processes": [
            (kernel.output(pid), kernel.output_text(pid), kernel.process_state(pid))
            for pid in range(len(kernel.processes))
        ],
    }


def _kernel(programs, **options):
    kernel = Kernel(**options)
    for program in programs:
        kernel.add_process(program)
    return kernel


#: the os-multiprog benchmark configuration: four corpus programs under a
#: preemptive kernel whose 8-frame pool forces eviction
OS_MULTIPROG = ("sort", "hashsym", "wordcount", "sieve")
OS_MULTIPROG_OPTIONS = {"quantum": 2000, "max_frames": 8}

#: config id -> (corpus programs, Kernel options)
KERNEL_CONFIGS = {
    "run-to-exit": (("fib_iterative", "calc"), {"quantum": 0, "inputs": [5, 6]}),
    "preemptive": (("fib_iterative", "calc"), {"quantum": 700, "inputs": [5, 6]}),
    "paging-pressure": (
        ("fib_iterative", "calc"),
        {"quantum": 500, "max_frames": 8, "inputs": [5, 6]},
    ),
    "checked": (
        ("fib_iterative", "calc"),
        {"quantum": 500, "max_frames": 8, "inputs": [5, 6], "hazard_mode": HazardMode.CHECKED},
    ),
    "os-multiprog": (OS_MULTIPROG, OS_MULTIPROG_OPTIONS),
}


@pytest.mark.parametrize("config", KERNEL_CONFIGS)
def test_kernel_differential(config):
    """Batched Kernel.run is exact: steps, timer quanta, paging with its
    referenced/dirty bits and clock hand, the disk, output -- and every
    handler a mapped context built is its own literal source."""
    names, options = KERNEL_CONFIGS[config]
    programs = [compile_source(CORPUS[name]).program for name in names]
    fast_k, ref_k = (_kernel(programs, **options) for _ in range(2))
    fast_k.run(fast=True)
    ref_k.run(fast=False)
    assert _kernel_snapshot(fast_k) == _kernel_snapshot(ref_k)
    engine = fast_k.cpu.fastpath()
    assert any(ctx.mapped and ctx.memo for ctx in engine._contexts.values())
    assert _assert_handlers_are_literal_source(engine) > 0


#: fast-engine reference steps of the os-multiprog configuration, in
#: OS_MULTIPROG's process order: the kernel's traps, rfs, device
#: accesses and interrupt deliveries, and the user words that fault.
#: ``rfs`` restores the branch slots, so the words it restarts run on
#: handlers (14,801 while they ran on the reference stepper)
OS_MULTIPROG_REF_STEPS = 13_520


def test_os_multiprog_pins_reference_steps():
    """Mapped execution runs on handlers: only faults, traps, interrupts,
    ``rfs`` and device accesses reach the reference stepper, and a word
    that newly falls back fails here, not only as a slowdown."""
    programs = [compile_source(CORPUS[name]).program for name in OS_MULTIPROG]
    kernel = _kernel(programs, **OS_MULTIPROG_OPTIONS)
    kernel.run()
    stats = kernel.cpu.fastpath().stats
    assert stats.ref_steps == OS_MULTIPROG_REF_STEPS
    # a step that takes a fault or an interrupt retires no word, so the
    # split is of the kernel's steps, not of its words -- plus the store
    # that halts the machine, a reference step that raises mid-step
    assert stats.word_dispatches + stats.ref_steps == kernel.steps_run + 1


def _current_user_word(kernel):
    """``(system page, physical address)`` of the user word at the PC, or
    None when the CPU is in the kernel or that page is not mapped."""
    cpu = kernel.cpu
    if not cpu.surprise.mapping_enabled:
        return None
    try:
        sysva = cpu.translate(cpu.pc)
    except PageFault:
        return None
    frame = kernel.pagemap.entries.get(sysva >> PAGE_SHIFT)
    if frame is None:
        return None
    return sysva >> PAGE_SHIFT, (frame << PAGE_SHIFT) | (sysva & (PAGE_WORDS - 1))


def test_kernel_chunked_run_survives_host_map_and_memory_changes():
    """997-word chunks land both engines on the same full snapshot at
    every boundary -- also after the host unmaps the running process's
    code page (it must fault back in, not run stale handlers) and pokes
    ``trap #0`` over its next word (it must exit there)."""
    names = ("scanner", "calc", "strings")
    programs = [compile_source(CORPUS[name]).program for name in names]
    options = KERNEL_CONFIGS["paging-pressure"][1]
    kernels = {fast: _kernel(programs, **options) for fast in (True, False)}
    exit_bits = encode(InstructionWord.single(Trap(0)))
    unmapped = poked = None
    chunks = 0
    while not kernels[False].halted and chunks < 1000:
        for fast, kernel in kernels.items():
            kernel.run_steps(997, fast=fast)
        chunks += 1
        assert _kernel_snapshot(kernels[True]) == _kernel_snapshot(kernels[False]), chunks
        where = _current_user_word(kernels[False])
        if where is None:
            continue
        page, phys = where
        if unmapped is None and chunks >= 4:
            for kernel in kernels.values():
                kernel.pagemap.unmap_page(page)
            unmapped = chunks
        elif poked is None and chunks >= 12:
            for kernel in kernels.values():
                kernel.physical.poke(phys, exit_bits)
            poked = chunks
    assert kernels[True].halted and unmapped and poked


SMC_PATCH = encode(InstructionWord.single(MovImm(2, Reg(1))))

#: user processes that fault, overflow, and rewrite their own code
FAULTING_PROCESSES = {
    # a load from the hole between the two segment regions: killed.  The
    # process space is 2**20 words, so 2**20 - 17 is past the lower half;
    # added to the process's system base it would land on the stack page
    # the store has just mapped, so a missing hole check reads, not faults
    "hole": """
        start:  movi #5, r1
                st r1, 0(r14)
                trap #1
                lim 1048559, r2
                ld 0(r2), r1
                nop
                trap #1
                trap #0
    """,
    # 0x7FFFF800 + 0x7FFFF800 overflows with traps on: killed
    "overflow": """
        start:  movi #7, r1
                trap #1
                lim 1048575, r2
                sll r2, #11, r2
                add r2, r2, r3
                mov #9, r1
                trap #1
                trap #0
    """,
    # the first pass stores `movi #2, r1` over `loop`, which already ran
    # in the same burst; r6 sums 1 + 2 + 2
    "self-modify": f"""
        start:  mov #0, r5
                mov #0, r6
        loop:   movi #1, r1
                add r6, r1, r6
                ld @patch, r2
                nop
                st r2, @loop
                add r5, #1, r5
                blo r5, #3, loop
                nop
                mov r6, r1
                trap #1
                trap #0
        patch:  .word {SMC_PATCH}
    """,
}


def test_kernel_faulting_processes():
    """Segment holes and overflow kill their process precisely, and a
    process storing into its own code page runs the new word."""
    from repro.asm.assembler import assemble

    programs = [assemble(source) for source in FAULTING_PROCESSES.values()]
    programs.append(compile_source(CORPUS["fib_iterative"]).program)
    kernels = []
    for fast in (True, False):
        kernel = _kernel(programs, quantum=200, max_frames=4, inputs=[5])
        kernel.run(fast=fast)
        kernels.append(kernel)
    fast_k, ref_k = kernels
    assert _kernel_snapshot(fast_k) == _kernel_snapshot(ref_k)
    assert [fast_k.output(pid) for pid in range(3)] == [[5], [7], [5]]
    assert fast_k.cpu.fastpath().stats.invalidations >= 2


#: generated programs run as kernel processes: four AST and four MiniJava
#: cases of one fuzz seed
KERNEL_FUZZ_SEED = 7
KERNEL_FUZZ_CASES = [(mode, index) for mode in ("ast", "minijava") for index in range(4)]


@pytest.mark.parametrize(
    "mode,index", KERNEL_FUZZ_CASES, ids=[f"{m}-{i}" for m, i in KERNEL_FUZZ_CASES]
)
def test_generated_programs_as_kernel_processes(mode, index):
    """A generated program, run twice over as two processes under a
    small-frame preemptive kernel, leaves identical snapshots on both
    engines, and each process prints what the bare machine prints with
    overflow traps on (the kernel runs processes with traps on and kills
    one that overflows)."""
    case = make_case(KERNEL_FUZZ_SEED, index, mode)
    compile_case = compile_source if mode == "ast" else compile_minijava
    program = compile_case(case.source).program
    kernels = []
    for fast in (True, False):
        kernel = _kernel([program, program], quantum=300, max_frames=4)
        kernel.run(fast=fast)
        kernels.append(kernel)
    fast_k, ref_k = kernels
    assert _kernel_snapshot(fast_k) == _kernel_snapshot(ref_k)
    bare = Machine(program)
    bare.cpu.surprise.overflow_traps_enabled = True
    try:
        bare.run(2_000_000)
    except OverflowTrap:
        pass
    assert fast_k.output(0) == fast_k.output(1) == bare.output


def test_bailed_machine_is_collected():
    """A machine whose fast run bailed is freed once dropped: the shared
    bail exception must not keep the handlers' frames, and with them the
    CPU, alive through its traceback."""
    program = compile_source(CORPUS["sort"], opt_level=OptLevel.NONE).program
    machine = Machine(program, hazard_mode=HazardMode.INTERLOCKED, inputs=[7, 3, 9])
    machine.run(60_000_000)
    assert machine.cpu.fastpath().stats.bails > 0
    alive = weakref.ref(machine)
    del machine
    gc.collect()
    assert alive() is None


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


def _compiled_words(engine):
    """``(context, pc, bits, handler)`` for every handler the engine holds:
    the live ones of unmapped contexts, and every handler a mapped
    context ever built (its ``(pc, bits)`` memo)."""
    words = engine._phys._words
    for ctx in engine._contexts.values():
        if ctx.mapped:
            for (pc, bits), (handler, _delta) in ctx.memo.items():
                yield ctx, pc, bits, handler
        else:
            for pc, handler in ctx.handlers.items():
                yield ctx, pc, words.get(pc, 0), handler


def _assert_handlers_are_literal_source(engine, every_word=True) -> int:
    """Each compiled handler is bytecode-identical to its template rendered
    with its own slot values and compiled; returns how many were checked.

    ``every_word=False`` checks the first word of each template only.
    """
    checked = 0
    seen = set()
    for ctx, pc, bits, handler in _compiled_words(engine):
        if handler is _FALLBACK:
            continue
        src, ir = engine._word_template(ctx, pc, bits)
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


def test_templates_compile_once_per_process(monkeypatch):
    """A second engine in the same process compiles no template again: it
    makes no ``exec()``, counts the same templates as the first, and each
    of its handlers is still bytecode-identical to its literal source."""
    program = compile_source(CORPUS["scanner"]).program
    first = Machine(program, inputs=[7, 3, 9])
    first.run(60_000_000)
    sources = []

    def counting_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)  # noqa: S102 - the engine's own template text

    monkeypatch.setattr(fastpath, "exec", counting_exec, raising=False)
    second = Machine(program, inputs=[7, 3, 9])
    second.run(60_000_000)
    engine = second.cpu.fastpath()
    assert sources == []
    assert engine.stats.templates == first.cpu.fastpath().stats.templates > 0
    assert _assert_handlers_are_literal_source(engine) == engine.stats.compiles
    assert second.output == first.output


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


# ---------------------------------------------------------------------------
# exhaustive addressing: every mode x every segment mask x edge values
# ---------------------------------------------------------------------------

#: where a case program's code and results live (virtual, in the low
#: region of every segment; physical with mapping off), and two more
#: addresses there: one on a page left unmapped and one on a page mapped
#: to a frame past memory.  None lies where the edge values reach.
ADDR_CODE, ADDR_RESULTS, ADDR_MISS, ADDR_BUS = 10240, 13312, 30000, 31000
ADDR_MEMORY = 1 << 16
ADDR_DISPS = (0, 1, -1, 65535, -65536)
LOADED = Reg(13)


def _addressing_words(nbases, nindexes, absolutes):
    """Every address mode over base registers r0.. and index registers
    r0..: case ``i`` loads through its mode and stores the value at
    ``ADDR_RESULTS + i``, then stores through its mode."""
    bases = [Reg(n) for n in range(nbases)]
    modes = [Displacement(base, disp) for base in bases for disp in ADDR_DISPS]
    modes += [BaseIndex(base, index) for base in bases for index in bases[:nindexes]]
    modes += [BaseShifted(base, shift) for base in bases for shift in (1, 2, 3, 4)]
    modes += [Absolute(addr) for addr in absolutes]
    assert len(modes) <= PAGE_WORDS  # the results fill at most one page
    pieces = []
    for i, mode in enumerate(modes):
        pieces += [Load(mode, LOADED), Noop(), Store(Absolute(ADDR_RESULTS + i), LOADED)]
        pieces.append(Store(mode, LOADED))
    pieces.append(Trap(0))
    return [InstructionWord.single(piece) for piece in pieces]


def _addressing_cpu(words, regs, mask=None, pid=0):
    """A CPU about to run ``words`` at ``ADDR_CODE``: in user mode over a
    page map in segment ``(pid, mask)``, or over bare physical memory when
    ``mask`` is None.  Mapped, each region edge's page, the code pages and
    the results page hold frames, and ``ADDR_BUS``'s page a frame past
    memory.  Each edge page's words read as one plus their physical
    address."""
    physical = PhysicalMemory(ADDR_MEMORY)
    if mask is None:
        cpu = Cpu(physical)
        place = {addr: addr for addr in range(ADDR_CODE, ADDR_CODE + len(words))}
        data = [*range(PAGE_WORDS), *range(ADDR_MEMORY - PAGE_WORDS, ADDR_MEMORY)]
    else:
        cpu = Cpu(MappedMemory(physical))
        cpu.seg_mask, cpu.seg_pid = mask, pid
        cpu.surprise.supervisor = False
        cpu.surprise.mapping_enabled = True
        translate = segment_translator(pid, mask)
        half, top, _, _ = segment_window(pid, mask)
        code = [translate(ADDR_CODE + addr) for addr in range(len(words))]
        edges = [translate(va) for va in (0, half - 1, top, 2**32 - 1, ADDR_RESULTS)]
        pages = sorted({sv >> PAGE_SHIFT for sv in code + edges})
        pagemap = cpu.memory.pagemap
        for frame, page in enumerate(pages):
            pagemap.map_page(page, frame)
        pagemap.map_page(translate(ADDR_BUS) >> PAGE_SHIFT, ADDR_MEMORY >> PAGE_SHIFT)

        def physical_of(sysva):
            frame = pagemap.entries[sysva >> PAGE_SHIFT]
            return (frame << PAGE_SHIFT) | (sysva & (PAGE_WORDS - 1))

        place = {ADDR_CODE + addr: physical_of(sv) for addr, sv in enumerate(code)}
        data = [
            physical_of((sv & -PAGE_WORDS) + offset)
            for sv in edges[:4]
            for offset in range(PAGE_WORDS)
        ]
    for addr in data:
        physical.poke(addr, addr + 1)
    for (va, addr), word in zip(place.items(), words):
        physical.poke(addr, encode(word, va))
    cpu.regs[: len(regs)] = regs
    cpu.pc = ADDR_CODE
    return cpu


def _run_addressing(cpu, fast):
    """Run a case program to its final trap; returns every fault taken as
    ``(kind, pc, address)``.  Each resumes past its word."""
    run = cpu.fastpath().run if fast else cpu.run
    faults = []
    while True:
        try:
            run(1 << 16)
        except TrapInstruction:
            return faults
        except (PageFault, BusError) as fault:
            faults.append((type(fault).__name__, cpu.pc, fault.address))
            cpu.pc += 1
            continue
        pytest.fail("case program ran past its final trap")


def _addressing_outcome(cpu, faults):
    physical = cpu.memory.physical if isinstance(cpu.memory, MappedMemory) else cpu.memory
    outcome = {
        "faults": faults,
        "cpu": state_fingerprint(cpu),
        "stats": asdict(cpu.stats),
        "memory": dict(physical._words),
        "memory_stats": asdict(physical.stats),
    }
    if physical is not cpu.memory:
        pagemap = cpu.memory.pagemap
        outcome["referenced"] = dict(pagemap.referenced)
        outcome["dirty"] = dict(pagemap.dirty)
        outcome["pagemap"] = (asdict(pagemap.stats), pagemap.pending_fault)
    return outcome


def _addressing_differential(words, regs, mask=None, pid=0):
    """Both engines' outcomes of one case program: they must agree, only
    the final trap may fall back to the reference stepper, and a handler
    bails only on a reference that faults."""
    outcomes = []
    for fast in (True, False):
        cpu = _addressing_cpu(words, regs, mask, pid)
        faults = _run_addressing(cpu, fast)
        outcomes.append(_addressing_outcome(cpu, faults))
        if fast:
            stats = cpu.fastpath().stats
            assert (stats.fallbacks, stats.bails) == (1, len(faults))
    assert outcomes[0] == outcomes[1]
    return outcomes[1]


@pytest.mark.parametrize("mask", range(9))
def test_exhaustive_mapped_addressing_matches_reference(mask):
    """Every address mode, loads and stores, in mapped user mode under
    segment mask ``mask`` with its lowest and highest PID: the engines
    agree on the fault sequence -- segment holes, map misses and bus
    errors alike -- state, stats, memory and the page map's bits."""
    for pid in sorted({0, 2**mask - 1}):
        half, top, _, _ = segment_window(pid, mask)
        regs = (0, 1, half - 1, half, top - 1, top, 2**32 - 1, ADDR_MISS, ADDR_BUS)
        absolutes = (0, 1, min(half, 1 << 21) - 1, ADDR_MISS, ADDR_BUS)
        words = _addressing_words(len(regs), 7, absolutes)
        outcome = _addressing_differential(words, regs, mask, pid)
        kinds = [kind for kind, _, _ in outcome["faults"]]
        misses = outcome["pagemap"][0]["faults"]
        assert 0 < misses < kinds.count("PageFault")  # the rest are holes
        assert "BusError" in kinds


def test_exhaustive_unmapped_addressing_matches_reference():
    """The same modes with mapping off, over bare physical memory: words
    past memory are bus errors."""
    regs = (0, 1, ADDR_MEMORY - 1, ADDR_MEMORY, 2**31 - 1, 2**31, 2**32 - 1)
    words = _addressing_words(len(regs), len(regs), (0, 1, ADDR_MEMORY - 1))
    outcome = _addressing_differential(words, regs)
    assert {kind for kind, _, _ in outcome["faults"]} == {"BusError"}


# ---------------------------------------------------------------------------
# the same arithmetic on the CC machine and in the constant folder
# ---------------------------------------------------------------------------

#: the CC machine's ALU ops and the MIPS op each must compute
CC_SHARED_OPS = {
    CcAluOp.ADD: AluOp.ADD,
    CcAluOp.SUB: AluOp.SUB,
    CcAluOp.AND: AluOp.AND,
    CcAluOp.OR: AluOp.OR,
    CcAluOp.XOR: AluOp.XOR,
    CcAluOp.SLL: AluOp.SLL,
    CcAluOp.SRA: AluOp.SRA,
}


def test_cc_alu_matches_mips_ops():
    """On the ops the two ISAs share, the CC machine computes ``dst op
    src`` exactly as the MIPS ALU computes ``s1 op s2``."""
    stream, expected = [], []
    for cc_op, op in CC_SHARED_OPS.items():
        for a in PRELOAD:
            for b in PRELOAD:
                stream.append((None, Move(CcImm(a), CcReg(0))))
                stream.append((None, CcAlu(cc_op, CcImm(b), CcReg(0))))
                stream.append((None, SysWrite(CcReg(0))))
                expected.append(s32(alu_evaluate(op, a, b)))
    stream.append((None, Halt()))
    machine = CcMachine(resolve(stream))
    machine.run()
    assert machine.output == expected


#: source-level operands: the edge set as signed values, plus literals
#: beyond the signed range (images -2**31, -1, 0 and -294967296)
SOURCE_VALUES = tuple(s32(v) for v in EDGES) + (2147483648, 4294967295, 4294967296, 4000000000)
DIVISION_BY_ZERO = "division by zero"


def _lit(value):
    return f"({value})" if value < 0 else str(value)


def _arith_outcomes(body):
    """The output of ``body`` (or a division by zero) on both engines
    and on the CC machine."""
    source = f"program p; var a, b: integer; begin {body} end."
    program = compile_source(source).program
    outcomes = []
    for fast in (True, False):
        machine = Machine(program)
        try:
            machine.run(fast=fast)
        except TrapInstruction as trap:
            assert trap.code == 5, trap  # the runtime's division by zero
            outcomes.append(DIVISION_BY_ZERO)
        else:
            outcomes.append(machine.output)
    cc = CcMachine(compile_cc_source(source))
    try:
        cc.run()
    except CcMachineError as exc:
        assert str(exc) == DIVISION_BY_ZERO
        outcomes.append(DIVISION_BY_ZERO)
    else:
        outcomes.append(cc.output)
    return outcomes


@pytest.mark.parametrize("op", ("+", "-", "*", "div", "mod"))
def test_folded_arith_matches_run_time(op):
    """Each source operator over SOURCE_VALUES gives one result whether
    it is folded (``L op R``), strength-reduced (``a op R``) or computed
    through variables (``a op b``), on both engines and on the CC
    machine -- or, for a divisor whose image is 0, one division by zero."""
    statements, by_zero = [], []
    for left in SOURCE_VALUES:
        for right in SOURCE_VALUES:
            setup = f"a := {_lit(left)}; b := {_lit(right)}; "
            forms = (f"{_lit(left)} {op} {_lit(right)}", f"a {op} {_lit(right)}", f"a {op} b")
            if op in ("div", "mod") and s32(right) == 0:
                by_zero.extend(setup + f"write({form})" for form in forms)
            else:
                statements.append(setup + "; ".join(f"write({form})" for form in forms))
    fast, precise, cc = _arith_outcomes(";\n".join(statements))
    assert fast == precise == cc
    assert len(fast) == 3 * len(statements)
    disagree = [
        (statements[i // 3], fast[i : i + 3])
        for i in range(0, len(fast), 3)
        if len(set(fast[i : i + 3])) != 1
    ]
    assert not disagree, disagree[:5]
    for body in by_zero:
        assert _arith_outcomes(body) == [DIVISION_BY_ZERO] * 3, body
