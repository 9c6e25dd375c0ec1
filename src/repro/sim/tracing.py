"""Execution tracing: a disassembling single-stepper.

A thin layer over :class:`~repro.sim.cpu.Cpu` for debugging compiled
code and the kernel: each step yields the PC, the decoded instruction
word, and the registers it changed.  Used by the test suite to assert
fine-grained pipeline behaviour and by humans chasing miscompiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..isa.words import InstructionWord
from .cpu import Cpu
from .faults import Halted


@dataclass
class TraceRecord:
    """One executed instruction word."""

    step: int
    pc: int
    word: InstructionWord
    #: register number -> value after this word committed
    writes: Dict[int, int]
    #: True when the word carried a taken control transfer
    branched: bool
    #: True when the step fetched no word at ``pc`` -- its fetch faulted,
    #: or it delivered an interrupt first: ``word`` is a placeholder NOP
    #: and the step vectored to the fault handler instead of executing
    #: anything at ``pc``
    fetch_faulted: bool = False

    def __repr__(self) -> str:
        changes = " ".join(f"r{n}={v:#x}" for n, v in sorted(self.writes.items()))
        marker = " ->" if self.branched else ""
        shown = "<fetch fault>" if self.fetch_faulted else repr(self.word)
        return f"{self.step:6d}  {self.pc:6d}  {shown}{marker}  {changes}"


def trace(cpu: Cpu, max_steps: int = 1000) -> Iterator[TraceRecord]:
    """Step the CPU, yielding a record per executed word.

    Stops on :class:`Halted` (swallowed) or after ``max_steps``.  Other
    faults propagate -- a tracer must not hide crashes.  A record's word
    is the one its step fetched, read back from the CPU's decode cache,
    so tracing fetches, translates and counts exactly what an untraced
    run does.
    """
    stats = cpu.stats
    for step in range(max_steps):
        pc = cpu.pc
        before = list(cpu.regs)
        taken_before = stats.branches_taken
        pieces_before = stats.pieces
        exceptions_before = stats.exceptions
        try:
            cpu.step()
        except Halted:
            return
        # a step counts its word's pieces before it can fault, so a step
        # that took a fault and counted none fetched nothing at pc: its
        # fetch faulted (or an interrupt came first), and the record is
        # marked so a placeholder NOP is never mistaken for an executed word
        fetch_faulted = stats.exceptions > exceptions_before and stats.pieces == pieces_before
        writes = {
            n: after
            for n, (prev, after) in enumerate(zip(before, cpu.regs))
            if prev != after
        }
        yield TraceRecord(
            step,
            pc,
            InstructionWord.nop() if fetch_faulted else cpu.step_plan(pc).word,
            writes,
            stats.branches_taken > taken_before,
            fetch_faulted=fetch_faulted,
        )


def format_trace(records: List[TraceRecord]) -> str:
    """A printable listing of trace records."""
    return "\n".join(repr(record) for record in records)


def state_fingerprint(cpu: Cpu) -> Dict[str, object]:
    """Every observable piece of CPU + stats state, as one dict.

    Used by the fast-path differential tests: two executions are
    equivalent iff their fingerprints (plus memory contents and program
    output) are equal.  Includes the in-flight pipeline state so that
    equivalence holds at *any* step boundary, not just at halt.
    """
    stats = cpu.stats
    pipe = cpu.pipe
    return {
        "pc": cpu.pc,
        "regs": list(cpu.regs),
        "lo": cpu.lo,
        "surprise": cpu.surprise.value,
        "xra": list(cpu.xra),
        "seg_mask": cpu.seg_mask,
        "seg_pid": cpu.seg_pid,
        "interrupt_line": cpu.interrupt_line,
        "deferred_load": {pipe[0]: pipe[1]} if pipe[0] != -1 else {},
        # (words left before it fires, target): the due slot, then the later
        "pending_branches": [(n, pipe[1 + n]) for n in (1, 2) if pipe[1 + n] != -1],
        # always empty now that rfs restarts through the slots; kept so digests do not move
        "forced_stream": [],
        "stats": {
            "cycles": stats.cycles,
            "words": stats.words,
            "pieces": stats.pieces,
            "noops": stats.noops,
            "loads": stats.loads,
            "stores": stats.stores,
            "branches": stats.branches,
            "branches_taken": stats.branches_taken,
            "memory_cycles_used": stats.memory_cycles_used,
            "free_memory_cycles": stats.free_memory_cycles,
            "load_stalls": stats.load_stalls,
            "branch_flush_cycles": stats.branch_flush_cycles,
            "exceptions": stats.exceptions,
            "ref_notes": dict(stats.ref_notes),
        },
    }
