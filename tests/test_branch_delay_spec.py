"""The branch-delay model, checked exhaustively against a model written here.

The machine delays a direct transfer (``beq`` and the other compare
branches, ``jmp``, ``jal``) by one word and an indirect one (``jmpr``,
``jalr``) by two, and a transfer may sit in another's delay slot.  Every
stream of three control words placed back to back (343 streams) runs on
both engines in lockstep, one step at a time, in BARE and INTERLOCKED
mode.  After every step the two engines' fingerprints must be equal and
the PC, the cycle count and the restart sequence (``upcoming_pcs``) must
be what this rule gives:

- a transfer issued at step i with d delay slots is due at step
  i + d + 1, and when two are due at the same step the later-issued one
  wins;
- in INTERLOCKED mode a taken transfer is due at the next step and
  charges d flush cycles.

An interrupt is then delivered before each step of each stream in turn,
to a handler that is one ``rfs``: after it the run must go on as the
uninterrupted one does, because exception entry saves the next three PCs
and ``rfs`` restores exactly them.
"""

import itertools

import pytest

from repro.asm import assemble
from repro.sim import HazardMode, Machine, state_fingerprint

#: word kind -> (assembly at position ``i``, delay slots when it transfers
#: control, else None).  ``beq r2, r2`` is always taken, ``bne r2, r2``
#: never; the indirect jumps read ``r{5 + i}``, which holds ``pad{i}``.
WORDS = {
    "add": ("add r3, #1, r3", None),
    "beq": ("beq r2, r2, pad{i}", 1),
    "bne": ("bne r2, r2, pad{i}", None),
    "jmp": ("jmp pad{i}", 1),
    "jal": ("jal pad{i}", 1),
    "jmpr": ("jmpr r{reg}", 2),
    "jalr": ("jalr r{reg}", 2),
}

#: what follows the control words, and each landing pad: three plain
#: words (a transfer still pending on arrival lands within them), then a
#: halt
TAIL = ["add r4, #1, r4"] * 3 + ["trap #0"]

#: the interrupt handler, at address 0 where exceptions vector
HANDLER = "rfs"


def _source(kinds) -> str:
    lines = [f"lim pad{i}, r{5 + i}" for i in range(len(kinds))]
    lines += [WORDS[kind][0].format(i=i, reg=5 + i) for i, kind in enumerate(kinds)]
    lines += TAIL
    for i in range(len(kinds)):
        lines.append(f"pad{i}: {TAIL[0]}")
        lines += TAIL[1:]
    return "\n".join(lines)


def _model(program, kinds, interlocked: bool) -> list:
    """``(pc, flush cycles, next three pcs)`` after each step, to the halt."""
    first = program.entry + len(kinds)  # after one ``lim`` per control word
    pads = [program.symbol(f"pad{i}") for i in range(len(kinds))]
    transfers = {
        first + i: (WORDS[kind][1], pads[i])
        for i, kind in enumerate(kinds)
        if WORDS[kind][1] is not None
    }
    halts = {first + len(kinds) + 3} | {pad + 3 for pad in pads}
    pc, flush, due = program.entry, 0, {}  # due: step -> the pc it runs
    states = []
    for step in itertools.count(1):  # step ``step`` runs the word at pc
        if pc in transfers:
            delay, target = transfers[pc]
            if interlocked:
                flush += delay
                due[step + 1] = target
            else:
                due[step + delay + 1] = target  # a later issue wins a tie
        halted = pc in halts
        pc = due.pop(step + 1, pc + 1)
        upcoming = [pc]
        for later in (step + 2, step + 3):
            upcoming.append(due.get(later, upcoming[-1] + 1))
        states.append((pc, flush, upcoming))
        if halted:
            return states


def _lockstep(ref, fast, where) -> dict:
    """One step on each engine; their fingerprints must be equal."""
    ref.run_steps(1, fast=False)
    fast.run_steps(1, fast=True)
    fingerprint = state_fingerprint(ref.cpu)
    assert state_fingerprint(fast.cpu) == fingerprint, where
    return fingerprint


MODES = [HazardMode.BARE, HazardMode.INTERLOCKED]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_every_three_word_control_stream_follows_the_delay_rule(mode):
    for kinds in itertools.product(WORDS, repeat=3):
        program = assemble(_source(kinds))
        expected = _model(program, kinds, mode is HazardMode.INTERLOCKED)
        ref = Machine(program, hazard_mode=mode)
        fast = Machine(program, hazard_mode=mode)
        for step, (pc, flush, upcoming) in enumerate(expected, 1):
            where = f"{' '.join(kinds)}, step {step}"
            fingerprint = _lockstep(ref, fast, where)
            assert fingerprint["pc"] == pc, where
            assert ref.cpu.stats.cycles == step + flush, where
            assert ref.cpu.upcoming_pcs(3) == upcoming, where
            assert ref.halted == fast.halted == (step == len(expected)), where


def _interruptible(program, mode) -> Machine:
    machine = Machine(program, hazard_mode=mode)
    machine.cpu.vectored_exceptions = True
    machine.cpu.surprise.interrupts_enabled = True
    return machine


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_an_interrupt_before_any_step_resumes_the_same_stream(mode):
    for kinds in itertools.product(WORDS, repeat=3):
        program = assemble(f"{HANDLER}\nstart: {_source(kinds)}")
        expected = _model(program, kinds, mode is HazardMode.INTERLOCKED)
        for k in range(1, len(expected) + 1):
            ref, fast = (_interruptible(program, mode) for _ in range(2))
            for step in range(1, k):
                _lockstep(ref, fast, f"{' '.join(kinds)}, step {step}")
            where = f"{' '.join(kinds)}, interrupt before step {k}"
            resume = ref.cpu.upcoming_pcs(3)
            ref.cpu.interrupt_line = fast.cpu.interrupt_line = True
            assert _lockstep(ref, fast, where)["pc"] == 0, where
            ref.cpu.interrupt_line = fast.cpu.interrupt_line = False
            assert _lockstep(ref, fast, where)["xra"] == resume, where
            assert ref.cpu.upcoming_pcs(3) == resume, where
            for step, (pc, flush, upcoming) in enumerate(expected[k - 1:], k):
                where = f"{' '.join(kinds)}, interrupt before step {k}, step {step}"
                fingerprint = _lockstep(ref, fast, where)
                assert fingerprint["pc"] == pc, where
                assert ref.cpu.stats.cycles == step + flush + 1, where  # + the rfs
                assert ref.cpu.upcoming_pcs(3) == upcoming, where
                assert ref.halted == fast.halted == (step == len(expected)), where
