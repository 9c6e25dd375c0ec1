"""Observability and idle chaos plumbing add no work per executed word.

An attached profiler, counter sampling with ``collect``, ``Machine.run``'s
``run_steps`` loop and an installed but idle ``fault_observer`` may each
cost a constant per run, and nothing per word.  Each test counts the
opcodes the interpreter executes (``sys.settrace`` with
``frame.f_trace_opcodes``) over a run of a loop of N iterations and one
of 2N, with and without the feature, and asserts that the difference is
the same at both lengths.  Differences are compared, never absolute
counts, so the tests hold on any Python version; one opcode more per
word would show as 3N more at the longer length.
"""

import gc
import sys

from repro.asm import assemble
from repro.perf import Profiler, collect
from repro.sim import Machine
from repro.sim.faults import Halted

#: loop iterations of the shorter run (three words each); tracing is
#: slow, so N stays in the hundreds
N = 300

LOOP_SOURCE = """
start:  mov #0, r8
        lim #{n}, r9
loop:   add r8, #1, r8
        blo r8, r9, loop
        nop
        trap #0
"""


def _count_opcodes(run) -> int:
    """The opcodes executed by ``run()``, over every Python frame it enters."""
    count = 0

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_event

    def on_event(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_event

    previous = sys.gettrace()
    gc.collect()
    gc.disable()  # a collection could run finalizers inside the count
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
        gc.enable()
    return count


def _machine(n: int) -> Machine:
    return Machine(assemble(LOOP_SOURCE.format(n=n)))


def _extra_opcodes(bare, feature) -> list:
    """``feature``'s opcodes over ``bare``'s at N and at 2N iterations.

    Each argument maps an iteration count to a run, built untraced.
    """
    bare(N)()  # compiles the loop's handler templates, untraced
    # on Python 3.12 the first traced call in a process counts nothing
    _count_opcodes(lambda: None)
    counts = {n: (_count_opcodes(bare(n)), _count_opcodes(feature(n))) for n in (N, 2 * N)}
    # the count sees the words: N more iterations are 3N more words
    assert counts[2 * N][0] - counts[N][0] >= 3 * N, counts
    return [with_feature - without for without, with_feature in counts.values()]


def _plain(n: int):
    return _machine(n).run


def _attached(n: int):
    machine = _machine(n)
    Profiler().attach(machine.cpu)
    return machine.run


def _attached_and_collected(n: int):
    machine = _machine(n)
    Profiler().attach(machine.cpu)

    def run():
        machine.run()
        collect(machine.cpu)

    return run


def _raw_engine(n: int):
    engine = _machine(n).cpu.fastpath()

    def run():
        try:
            engine.run(10_000_000)
        except Halted:
            pass

    return run


def _idle_observer(n: int):
    machine = _machine(n)
    machine.cpu.fault_observer = lambda cpu, fault, surprise, pc: None
    return machine.run


def test_attached_profiler_adds_no_work_per_word():
    short, long = _extra_opcodes(_plain, _attached)
    assert short == long


def test_attached_profiler_and_collect_add_no_work_per_word():
    short, long = _extra_opcodes(_plain, _attached_and_collected)
    assert short == long


def test_run_steps_plumbing_adds_no_work_per_word():
    short, long = _extra_opcodes(_raw_engine, _plain)
    assert short == long


def test_idle_fault_observer_adds_no_work_per_word():
    short, long = _extra_opcodes(_plain, _idle_observer)
    assert short == long
