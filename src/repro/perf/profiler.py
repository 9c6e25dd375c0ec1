"""Per-PC cycle attribution and the architectural event ring.

The profiler is the dynamic half of the observability layer: a
dictionary of **execution counts per instruction address**, plus stall
and flush cycles attributed to the word that paid them, plus a bounded
ring buffer of architectural events (faults, traps, ``rfs``).  Every
other counter the layer reports (:mod:`repro.perf.counters`) is derived
at *sample time* by multiplying these counts against static per-word
properties, so the per-step cost of full observability is one dict
increment on the reference stepper and one dict merge per fast-path
burst -- nothing in the threaded-code handler loop changes.

Engine identity: the fast path flushes its per-burst execution counts
into the same dictionaries the reference stepper increments, and the
events the ring records (faults, traps, ``rfs``) only ever execute on
the reference stepper (the fast path bails on all of them), so an
attached profiler observes byte-identical data under either engine.

Attach with :meth:`Profiler.attach`; a detached CPU pays a single
``is None`` test per reference step and per burst flush.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: default ring capacity: enough to hold a paging storm's fault train
#: while keeping a profile record small
DEFAULT_EVENT_CAPACITY = 256


class Profiler:
    """Execution counts, stall attribution, and the event ring for one CPU."""

    __slots__ = ("counts", "stall_cycles", "flush_cycles", "_events", "_event_seq", "capacity")

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY):
        #: instruction address -> times a word at that address completed
        self.counts: Dict[int, int] = {}
        #: address -> interlock stall cycles charged at that word (INTERLOCKED)
        self.stall_cycles: Dict[int, int] = {}
        #: address -> branch flush cycles charged at that word (INTERLOCKED)
        self.flush_cycles: Dict[int, int] = {}
        self.capacity = capacity
        self._events: List[Tuple] = []
        #: total events ever recorded (so a full ring still reports drops)
        self._event_seq = 0

    # -- wiring --------------------------------------------------------

    def attach(self, cpu) -> "Profiler":
        """Install on a CPU (both engines report to it); returns self."""
        cpu.profiler = self
        return self

    # -- recording (called from the simulator's cold paths) ------------

    def record_event(self, kind: str, words: int, pc: int, *detail) -> None:
        """Append an architectural event, evicting the oldest when full.

        ``words`` is ``stats.words`` at event time -- an engine-neutral
        timestamp (both engines count executed words identically).
        """
        ring = self._events
        if len(ring) >= self.capacity:
            del ring[0]
        ring.append((self._event_seq, kind, words, pc) + detail)
        self._event_seq += 1

    def charge_stall(self, pc: int, cycles: int = 1) -> None:
        self.stall_cycles[pc] = self.stall_cycles.get(pc, 0) + cycles

    def charge_flush(self, pc: int, cycles: int) -> None:
        self.flush_cycles[pc] = self.flush_cycles.get(pc, 0) + cycles

    # -- sampling ------------------------------------------------------

    def cycles_at(self, pc: int) -> int:
        """Cycles attributed to the word at ``pc`` (1 per issue + charges)."""
        return (
            self.counts.get(pc, 0)
            + self.stall_cycles.get(pc, 0)
            + self.flush_cycles.get(pc, 0)
        )

    @property
    def total_cycles(self) -> int:
        return (
            sum(self.counts.values())
            + sum(self.stall_cycles.values())
            + sum(self.flush_cycles.values())
        )

    @property
    def events(self) -> List[Dict[str, object]]:
        """The retained events, oldest first, as stable dicts."""
        out = []
        for entry in self._events:
            seq, kind, words, pc = entry[:4]
            event: Dict[str, object] = {"seq": seq, "kind": kind, "words": words, "pc": pc}
            if kind == "fault":
                event["cause"] = entry[4]
                event["minor"] = entry[5]
            elif kind == "trap":
                event["code"] = entry[4]
            out.append(event)
        return out

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ring (total recorded minus retained)."""
        return self._event_seq - len(self._events)

    def hot_pcs(self, top: Optional[int] = None) -> List[Tuple[int, int]]:
        """``(pc, cycles)`` sorted by cycles descending, pc as tie-break."""
        pcs = set(self.counts) | set(self.stall_cycles) | set(self.flush_cycles)
        ranked = sorted(
            ((pc, self.cycles_at(pc)) for pc in pcs),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked if top is None else ranked[:top]
