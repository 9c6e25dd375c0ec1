"""Spans around the program's public entry points, for the traced run.

:meth:`Tracer.install` replaces each entry point where its callers look
it up with a wrapper that passes ``*args``/``**kwargs`` through unchanged
and records a span: name, start, end, parent and op id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover, so the self times of all spans add up to the
traced wall time.

The wrappers also read counters from public state: every machine and
kernel created, the reorganizer's results, the code generator's piece
streams, CC-machine runs and fuzz verdicts.  Counters are taken over the
first round only, so at a fixed seed they repeat exactly however long
the run is.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict
from functools import wraps
from pathlib import Path
from typing import Dict, List, Tuple

# span kinds: the runner's operations, and the program's layers inside them
OP, LAYER = "op", "layer"

#: counter -> unit, for counters every traced run reports even when no
#: layer touched them; the engine's own counters are added at install
COUNTERS = {
    "sim.words": "words", "sim.cycles": "cycles",
    "compiler.pieces": "count",
    "reorg.words": "words", "reorg.noops": "words", "reorg.packed": "words",
    "system.page_faults": "count", "system.evictions": "count",
    "system.writebacks": "count", "system.translations": "count",
    "ccmachine.instructions": "count",
    "fuzz.cases": "count", "fuzz.divergences": "count",
}


def _engine(prefix: str):
    """Span name from the engine kwargs, as the program defaults them."""

    def name(kwargs) -> str:
        if kwargs.get("jit", False):
            return f"{prefix}.jit"
        return f"{prefix}.fast" if kwargs.get("fast", True) else f"{prefix}.precise"

    return name


class Tracer:
    """Records nested spans and first-round counters in memory."""

    def __init__(self) -> None:
        #: [name, kind, start, end, parent index, op id]
        self.spans: List[list] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self.layers: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._round = None
        self._targets: List[Tuple[object, bool]] = []  # (machine or kernel, is kernel)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = LAYER):
        record = [name, kind, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind: str, rnd: int):
        """One operation of the runner: a root span."""
        if rnd != 0:
            self.flush()
        self._op += 1
        self._round = rnd
        with self.span(kind, OP):
            yield

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        import repro.ccmachine as ccmachine
        import repro.mjlang as mjlang
        from repro.chaos import engine as chaos_engine
        from repro.compiler import driver
        from repro.fuzz import oracle
        from repro.reorg.reorganizer import ReorgResult
        from repro.sim import Machine
        from repro.sim.fastpath import EngineStats
        from repro.system import kernel

        # read generically, so a counter the program drops leaves the output
        for key in asdict(EngineStats()):
            self.counts[f"sim.fastpath.{key}"] = 0
        points = [
            (driver, "analyze", "lang.analyze", None),
            (mjlang, "analyze_minijava", "mjlang.analyze", None),
            (driver, "generate", "compiler.generate", self._count_pieces),
            (driver, "runtime_stream", "compiler.runtime_stream", None),
            (driver, "reorganize", "reorg.reorganize", self._count_reorg),
            (kernel, "reorganize", "reorg.reorganize", self._count_reorg),
            (kernel, "assemble_pieces", "asm.assemble", None),
            (ReorgResult, "to_program", "asm.to_program", None),
            (Machine, "__init__", "sim.load", self._register_machine),
            (Machine, "run", _engine("sim.run"), None),
            (Machine, "run_steps", _engine("sim.run"), None),
            (kernel.Kernel, "__init__", "system.kernel.init", self._register_kernel),
            (kernel.Kernel, "boot", "system.kernel.boot", None),
            (kernel.Kernel, "run_steps", "system.kernel.run", None),
            (ccmachine, "compile_cc_source", "ccmachine.compile", None),
            (ccmachine.CcMachine, "run", "ccmachine.run", self._count_cc),
            (chaos_engine, "run_plan", "chaos.run_plan", None),
            (oracle, "check_case", "fuzz.check", self._count_fuzz),
        ]
        for owner, attr, name, hook in points:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
            if callable(name):
                self.layers.extend(name(kw) for kw in ({"fast": False}, {}, {"jit": True}))
            else:
                self.layers.append(name)
        self.layers = list(dict.fromkeys(self.layers))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name(kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if hook is not None and tracer._round == 0:
                hook(args, result)
            return result

        return wrapper

    # -- first-round counters --------------------------------------------------

    def _register_machine(self, args, _result) -> None:
        self._targets.append((args[0], False))

    def _register_kernel(self, args, _result) -> None:
        self._targets.append((args[0], True))

    def _count_pieces(self, _args, unit) -> None:
        self.counts["compiler.pieces"] += len(unit.stream)

    def _count_reorg(self, _args, result) -> None:
        self.counts["reorg.words"] += result.static_count
        self.counts["reorg.noops"] += result.noop_count
        self.counts["reorg.packed"] += result.packed_count

    def _count_cc(self, _args, stats) -> None:
        self.counts["ccmachine.instructions"] += stats.instructions

    def _count_fuzz(self, _args, result) -> None:
        self.counts["fuzz.cases"] += 1
        self.counts["fuzz.divergences"] += len(result.divergences)

    def flush(self) -> None:
        """Read the final state of every machine the first round made."""
        for target, is_kernel in self._targets:
            cpu = target.cpu
            self.counts["sim.words"] += cpu.stats.words
            self.counts["sim.cycles"] += cpu.stats.cycles
            for key, value in asdict(cpu.fastpath().stats).items():
                self.counts[f"sim.fastpath.{key}"] += value
            if is_kernel:
                self.counts["system.page_faults"] += target.pagemap.stats.faults
                self.counts["system.evictions"] += target.pagemap.stats.victims_suggested
                self.counts["system.translations"] += target.pagemap.stats.translations
                self.counts["system.writebacks"] += target.disk.writebacks
        self._targets.clear()

    # -- results ---------------------------------------------------------------

    def _covered(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for _name, _kind, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def self_times(self) -> Tuple[Dict[str, float], float, float]:
        """(self seconds per layer, unattributed seconds, traced wall seconds).

        The traced wall time is the time spent in operations; unattributed
        time is the operations' own self time, such as output checks.
        """
        layers: Dict[str, float] = {name: 0.0 for name in self.layers}
        unattributed = wall = 0.0
        for (name, kind, start, end, _parent, _op), covered in zip(self.spans, self._covered()):
            own = end - start - covered
            if kind == LAYER:
                layers[name] = layers.get(name, 0.0) + own
            else:
                unattributed += own
                wall += end - start
        return layers, unattributed, wall

    def collapsed(self) -> str:
        """One ``op;layer;child self_us`` line per distinct stack."""
        paths: List[str] = []
        totals: Dict[str, float] = defaultdict(float)
        for (name, _kind, start, end, parent, _op), covered in zip(self.spans, self._covered()):
            path = name if parent is None else f"{paths[parent]};{name}"
            paths.append(path)
            totals[path] += end - start - covered
        return "".join(f"{path} {round(sec * 1e6)}\n" for path, sec in totals.items())

    def export(self, json_path: Path, collapsed_path: Path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        spans = [
            {"name": name, "kind": kind, "start": start - origin, "end": end - origin,
             "parent": parent, "op": op}
            for name, kind, start, end, parent, op in self.spans
        ]
        json_path.write_text(json.dumps({"unit": "s", "spans": spans}))
        collapsed_path.write_text(self.collapsed())
