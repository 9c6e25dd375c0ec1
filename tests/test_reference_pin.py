"""The reference stepper, pinned step by step.

The fast path hands faults, traps, ``rfs``, special-register moves,
device accesses and interlock events to :meth:`Cpu.step`, so the engine
differentials cannot see a change in those paths: both sides of them run
the same stepper.  Each scenario here runs the reference stepper alone
(``cpu.step()`` or ``run_steps(..., fast=False)``, never ``trace``) and
folds into one SHA-256 every step's ``state_fingerprint``, the exception
that ended the run, the final memory and page-map counters, the output
and, for the hand-written streams, the profiler's counts, charges and
event ring.  A digest moves exactly when the stepper's observable
behaviour does.
"""

import hashlib
import json

import pytest

from repro.asm import assemble
from repro.compiler import compile_source
from repro.fuzz.case import make_case
from repro.perf.profiler import Profiler
from repro.sim import HazardMode, Machine, state_fingerprint
from repro.sim.faults import Halted, HazardViolation, MachineFault
from repro.system.kernel import Kernel
from repro.workloads import CORPUS

#: memory of the hand-written streams: small, so a bus error is one add away
STREAM_MEMORY = 1 << 16

#: Hand-written streams.  Each ends in a halt or in the fault it is about;
#: run in all three hazard modes with a profiler attached.
STREAMS = {
    # an add that wraps with traps off, then a packed load whose add
    # overflows with traps on: no load, no write, the earlier load still
    # in flight
    "overflow": """
start:  lim -1, r2
        srl r2, #1, r2
        movi #1, r5
        lim data, r3
        add r2, r5, r6
        mov r6, r1
        trap #1
        rdspec surprise, r7
        or r7, #4, r7
        wrspec r7, surprise
        sub r2, r5, r6
        ld 1(r3), r8
        { ld 0(r3), r4 | add r2, r5, r6 }
        trap #0
data:   .word 77, 78
""",
    # a packed load past the end of memory, with a load in flight
    "bus-error": """
start:  lim 65535, r2
        add r2, #1, r2
        lim data, r3
        ld 0(r3), r4
        { ld 0(r2), r5 | add r3, r3, r6 }
        trap #0
data:   .word 5
""",
    # a branch in a delay slot, a loop, a branch not taken
    "branches": """
start:  movi #3, r2
        jmp a
        jmp b
        movi #9, r2
a:      add r2, #1, r2
        movi #8, r2
b:      mov r2, r1
        trap #1
        movi #2, r3
loop:   sub r3, #1, r3
        bne r3, #0, loop
        add r2, #2, r2
        beq r3, #1, never
        nop
        mov r2, r1
        trap #1
        trap #0
never:  trap #0
""",
    # jal with its delay slot; jmpr and jalr with their two slots
    "calls": """
start:  lim sub2, r5
        jal sub1
        movi #1, r2
        mov r2, r1
        trap #1
        jalr r5
        movi #2, r3
        movi #3, r4
        add r3, r4, r1
        trap #1
        trap #0
sub1:   add r2, #4, r2
        jmpr ra
        add r2, #1, r2
        add r2, #2, r2
sub2:   mov r4, r1
        trap #1
        jmpr ra
        nop
        nop
""",
    # traps the trap hook services, then one it does not
    "traps": """
start:  trap #3
        add r1, #1, r1
        trap #1
        movi #65, r1
        trap #2
        trap #3
        trap #1
        trap #17
""",
    # clean loads, then a read in a load delay slot: stale in bare mode,
    # a stall in interlocked mode, a violation in checked mode
    "hazards": """
start:  lim data, r3
        ld 0(r3), r2
        nop
        add r2, #1, r1
        trap #1
        ld 1(r3), r2
        ld 0(r3), r4
        add r2, r4, r1
        trap #1
        ld 1(r3), r2
        add r2, #1, r1
        trap #1
        trap #0
data:   .word 10, 20
""",
    # every special register read and written, the byte instructions,
    # the step instructions and set-conditionally; then user level,
    # where lo stays readable and surprise does not
    "specials": """
start:  movi #2, r2
        wrspec r2, lo
        rdspec lo, r3
        lim 74565, r5
        movi #171, r4
        ic r4, r5
        mov r5, r1
        trap #1
        movi #1, r6
        xc r6, r5, r7
        mov r7, r1
        trap #1
        mstep r5, r4, r8
        dstep r5, r4, r9
        slt r8, r9, r10
        shs r8, r9, r11
        sbc r10, #1, r12
        rdspec surprise, r2
        rdspec segmask, r3
        rdspec segpid, r4
        rdspec xra0, r5
        rdspec xra1, r6
        rdspec xra2, r7
        movi #3, r2
        wrspec r2, segmask
        movi #255, r2
        wrspec r2, segpid
        rdspec segpid, r1
        trap #1
        movi #7, r2
        wrspec r2, xra0
        movi #8, r2
        wrspec r2, xra1
        wrspec #9, xra2
        rdspec xra2, r1
        trap #1
        rdspec surprise, r2
        and r2, #14, r2
        wrspec r2, surprise
        rdspec lo, r1
        trap #1
        rdspec surprise, r1
        trap #0
""",
    # a segment mask above 8 faults at commit, after the in-flight load
    # has landed
    "segmask": """
start:  lim data, r3
        movi #9, r2
        ld 0(r3), r4
        wrspec r2, segmask
        trap #0
data:   .word 6
""",
    # rfs returns to xra0 with xra1 and xra2 due in the branch slots; then
    # an rfs at user level
    "rfs": """
start:  lim one, r2
        wrspec r2, xra0
        lim two, r2
        wrspec r2, xra1
        lim three, r2
        wrspec r2, xra2
        movi #33, r2
        wrspec r2, surprise
        rfs
        trap #0
one:    movi #1, r1
        trap #0
two:    trap #1
        trap #0
three:  movi #3, r1
        trap #1
        rdspec surprise, r2
        and r2, #14, r2
        wrspec r2, surprise
        rfs
        trap #0
""",
    # every address mode, loading and storing, a packed store, and a
    # store past the end of memory
    "stores": """
start:  lim data, r3
        movi #2, r4
        movi #42, r2
        st r2, @200
        st r2, 1(r3)
        add r2, #1, r2
        st r2, (r3+r4)
        { st r2, 3(r3) | add r2, r4, r2 }
        lim data, r8
        sll r8, #2, r8
        add r8, #4, r8
        ld @200, r5
        ld 1(r3), r6
        ld (r3+r4), r7
        ld (r8>>2), r9
        ld 3(r3), r10
        add r5, r6, r1
        add r1, r7, r1
        add r1, r9, r1
        add r1, r10, r1
        trap #1
        lim 65535, r9
        add r9, #1, r9
        st r2, 0(r9)
        trap #0
data:   .word 0, 0, 0, 0
""",
}

#: the inputs trap #3 reads in the streams
STREAM_INPUTS = [41]

MODES = (HazardMode.BARE, HazardMode.CHECKED, HazardMode.INTERLOCKED)

#: the seed-42 ``words`` fuzz cases the stepper runs (bare mode)
WORD_CASES = 200
WORD_SEED = 42
#: the per-run step budget of the fuzz oracle's ``words`` mode
WORD_MAX_STEPS = 200_000

#: compiled corpus programs on a bare machine: their Load/Store notes
#: reach ``CpuStats.ref_notes`` only through the words the machine seeds
COMPILED = ("calc", "strings")

#: the kernel run: two processes to halt, a small frame pool, preemption
KERNEL_PROGRAMS = ("fib_iterative", "sieve")
KERNEL_OPTIONS = {"max_frames": 4, "quantum": 500}

#: scenario -> digest, taken on the stepper whose behaviour these pin
DIGESTS = {
    "overflow-bare": "3813f7a7289f003f",
    "overflow-checked": "3813f7a7289f003f",
    "overflow-interlocked": "adf75b99cc20b8a5",
    "bus-error-bare": "f3270feac50a6657",
    "bus-error-checked": "f3270feac50a6657",
    "bus-error-interlocked": "075be7bed16bcc3f",
    "branches-bare": "0899ee53517531d5",
    "branches-checked": "0899ee53517531d5",
    "branches-interlocked": "ac3cfe5781b126bf",
    "calls-bare": "b3f99772251e8d14",
    "calls-checked": "b3f99772251e8d14",
    "calls-interlocked": "d1765c4d5a0e7c9f",
    "traps-bare": "95f16854e23827fd",
    "traps-checked": "95f16854e23827fd",
    "traps-interlocked": "95f16854e23827fd",
    "hazards-bare": "27afae78779a2940",
    "hazards-checked": "a161ffc1c01c6856",
    "hazards-interlocked": "907386013c8b6ca3",
    "specials-bare": "d0f09a82cf99766f",
    "specials-checked": "d0f09a82cf99766f",
    "specials-interlocked": "d0f09a82cf99766f",
    "segmask-bare": "434f35fb7634f4e6",
    "segmask-checked": "434f35fb7634f4e6",
    "segmask-interlocked": "2baeee1ee75cc06b",
    "rfs-bare": "ddadde1f410366cd",
    "rfs-checked": "ddadde1f410366cd",
    "rfs-interlocked": "ddadde1f410366cd",
    "stores-bare": "1b6d4c0e77778adf",
    "stores-checked": "1b6d4c0e77778adf",
    "stores-interlocked": "63bf971385c6ff4c",
    "compiled": "94162109da1166ca",
    "words-seed42": "4a22e3d5dd8cccc1",
    "kernel": "651c5c4106c273d0",
}


class _Digest:
    """SHA-256 over a sequence of JSON-able observations."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        self._hash.update(json.dumps(value, sort_keys=True).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def _ending(exc) -> list:
    return [type(exc).__name__, str(exc)]


def _step_machine(machine: Machine, digest: _Digest, max_steps: int) -> None:
    """Step a bare machine to its halt, fault or budget, digesting each
    step's fingerprint and how the run ended."""
    cpu = machine.cpu
    ending = ["budget"]
    for _ in range(max_steps):
        try:
            cpu.step()
        except Halted:
            ending = ["halted"]
            break
        except (MachineFault, HazardViolation) as exc:
            digest.add(state_fingerprint(cpu))
            ending = _ending(exc)
            break
        digest.add(state_fingerprint(cpu))
    digest.add(ending)
    stats = machine.memory.stats
    digest.add([stats.reads, stats.writes, stats.fetches])
    digest.add([machine.output, machine.output_text])


def _profiler_state(profiler: Profiler) -> list:
    return [
        sorted(profiler.counts.items()),
        sorted(profiler.stall_cycles.items()),
        sorted(profiler.flush_cycles.items()),
        profiler.events,
    ]


def _stream_digest(name: str, mode: HazardMode) -> str:
    machine = Machine(
        assemble(STREAMS[name]),
        hazard_mode=mode,
        memory_size=STREAM_MEMORY,
        inputs=STREAM_INPUTS,
    )
    profiler = Profiler().attach(machine.cpu)
    digest = _Digest()
    _step_machine(machine, digest, 10_000)
    digest.add(_profiler_state(profiler))
    return digest.hexdigest()


def _compiled_digest() -> str:
    digest = _Digest()
    for name in COMPILED:
        machine = Machine(compile_source(CORPUS[name]).program)
        profiler = Profiler().attach(machine.cpu)
        _step_machine(machine, digest, 1_000_000)
        digest.add(_profiler_state(profiler))
    return digest.hexdigest()


def _words_digest() -> str:
    digest = _Digest()
    for index in range(WORD_CASES):
        case = make_case(WORD_SEED, index, "words")
        _step_machine(Machine(assemble(case.source)), digest, WORD_MAX_STEPS)
    return digest.hexdigest()


def _kernel_digest() -> str:
    kernel = Kernel(**KERNEL_OPTIONS)
    for name in KERNEL_PROGRAMS:
        kernel.add_process(compile_source(CORPUS[name]).program)
    digest = _Digest()
    while not kernel.halted:
        kernel.run_steps(1, fast=False)
        digest.add(state_fingerprint(kernel.cpu))
    physical = kernel.physical.stats
    digest.add([physical.reads, physical.writes, physical.fetches])
    digest.add(sorted(kernel.pagemap.stats.__dict__.items()))
    digest.add(
        [
            [kernel.output(pid), kernel.output_text(pid), kernel.process_state(pid)]
            for pid in range(len(KERNEL_PROGRAMS))
        ]
    )
    return digest.hexdigest()


def scenario_digest(scenario: str) -> str:
    """The digest of one scenario, by its :data:`DIGESTS` key."""
    if scenario == "compiled":
        return _compiled_digest()
    if scenario == "words-seed42":
        return _words_digest()
    if scenario == "kernel":
        return _kernel_digest()
    name, _, mode = scenario.rpartition("-")
    return _stream_digest(name, HazardMode(mode))


@pytest.mark.parametrize("scenario", DIGESTS)
def test_reference_stepper_is_pinned(scenario):
    assert scenario_digest(scenario) == DIGESTS[scenario]


def test_streams_reach_what_they_pin():
    """The streams end where their comments say, so each digest pins the
    path it names rather than an early halt."""
    endings = {}
    for name in STREAMS:
        for mode in MODES:
            machine = Machine(
                assemble(STREAMS[name]), hazard_mode=mode,
                memory_size=STREAM_MEMORY, inputs=STREAM_INPUTS,
            )
            try:
                machine.run(10_000, fast=False)
                endings[name, mode] = "halted"
            except (MachineFault, HazardViolation) as exc:
                endings[name, mode] = type(exc).__name__
    for mode in MODES:
        assert endings["overflow", mode] == "OverflowTrap"
        assert endings["bus-error", mode] == "BusError"
        assert endings["traps", mode] == "TrapInstruction"
        assert endings["specials", mode] == "PrivilegeViolation"
        assert endings["segmask", mode] == "IllegalInstruction"
        assert endings["rfs", mode] == "PrivilegeViolation"
        assert endings["stores", mode] == "BusError"
        for name in ("branches", "calls"):
            assert endings[name, mode] == "halted"
    assert endings["hazards", HazardMode.CHECKED] == "HazardViolation"
    assert endings["hazards", HazardMode.BARE] == "halted"
    assert endings["hazards", HazardMode.INTERLOCKED] == "halted"
