"""Deterministic guest hot-spot reports.

A *profile* is a plain dict built from a finished run: the top-N
hottest instruction addresses with cycle attribution, the stable
counter groups, and the architectural event trace.  Everything in it
derives from architectural state (execution counts, decode cache,
symbols), never from wall clocks or engine internals, so the same
program produces byte-identical profiles on either engine, under any
``--jobs N`` sharding, and across repeated runs -- which is what lets
profiles live in the farm's content-addressed :class:`ResultStore` and
be diffed in CI.

Three renderings: :func:`render_text` (human), :func:`render_json`
(machine, sorted keys), and :func:`render_collapsed` (one
``label;+off count`` line per hot word -- feed to any flamegraph tool).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .counters import collect, stable_groups

#: bump when the profile schema changes shape
PROFILE_VERSION = 1


def _symbol_table(program) -> List[Tuple[int, str]]:
    """``(address, name)`` sorted ascending, for nearest-label lookup."""
    symbols = getattr(program, "symbols", None) or {}
    return sorted((addr, name) for name, addr in symbols.items())


def label_for(pc: int, table: List[Tuple[int, str]]) -> str:
    """Nearest preceding symbol, as ``name`` or ``name+off``; hex otherwise."""
    best: Optional[Tuple[int, str]] = None
    for addr, name in table:
        if addr > pc:
            break
        best = (addr, name)
    if best is None:
        return f"0x{pc:x}"
    addr, name = best
    return name if addr == pc else f"{name}+{pc - addr}"


def build_profile(
    cpu,
    program=None,
    *,
    top: Optional[int] = None,
    name: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble the deterministic profile dict for a finished run.

    The profile is byte-identical across both engines, and the
    cross-engine differential suite diffs it to prove that.
    """
    profiler = cpu.profiler
    if profiler is None:
        raise ValueError("no profiler attached; call Profiler().attach(cpu) before running")
    table = _symbol_table(program)
    total = profiler.total_cycles
    hot = [
        {
            "pc": pc,
            "label": label_for(pc, table),
            "cycles": cycles,
            "count": profiler.counts.get(pc, 0),
            "stall_cycles": profiler.stall_cycles.get(pc, 0),
            "flush_cycles": profiler.flush_cycles.get(pc, 0),
            "pct": round(100.0 * cycles / total, 2) if total else 0.0,
        }
        for pc, cycles in profiler.hot_pcs(top)
    ]
    profile: Dict[str, object] = {
        "version": PROFILE_VERSION,
        "total_cycles": total,
        "hot": hot,
        "counters": stable_groups(collect(cpu)),
        "events": profiler.events,
        "events_dropped": profiler.events_dropped,
    }
    if name is not None:
        profile["name"] = name
    return profile


def render_json(profile: Dict[str, object]) -> str:
    return json.dumps(profile, sort_keys=True, separators=(",", ":"))


def render_collapsed(profile: Dict[str, object]) -> str:
    """Flamegraph-collapsed form: ``label;0xPC cycles`` per hot word."""
    lines = [
        f"{entry['label']};0x{entry['pc']:x} {entry['cycles']}"
        for entry in profile["hot"]
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_text(profile: Dict[str, object]) -> str:
    out = []
    name = profile.get("name")
    title = f"profile: {name}" if name else "profile"
    out.append(title)
    out.append(f"total attributed cycles: {profile['total_cycles']}")
    counters = profile["counters"]
    pipeline = counters["pipeline"]
    memory = counters["memory"]
    out.append(
        "words={words} pieces/word={pieces_per_word} stalls={load_stalls} "
        "flushes={branch_flush_cycles} free-mem={free_pct}%".format(
            words=pipeline["words"],
            pieces_per_word=pipeline["pieces_per_word"],
            load_stalls=pipeline["load_stalls"],
            branch_flush_cycles=pipeline["branch_flush_cycles"],
            free_pct=memory["free_cycle_pct"],
        )
    )
    out.append("")
    out.append(f"{'CYCLES':>10} {'%':>6} {'COUNT':>10} {'PC':>8}  LOCATION")
    for entry in profile["hot"]:
        out.append(
            f"{entry['cycles']:>10} {entry['pct']:>6.2f} {entry['count']:>10} "
            f"{entry['pc']:>#8x}  {entry['label']}"
        )
    events = profile["events"]
    if events:
        out.append("")
        dropped = profile["events_dropped"]
        suffix = f" ({dropped} older dropped)" if dropped else ""
        out.append(f"events ({len(events)} retained{suffix}):")
        for event in events:
            detail = {
                k: v for k, v in event.items() if k not in ("seq", "kind", "words", "pc")
            }
            extra = " ".join(f"{k}={v}" for k, v in sorted(detail.items()))
            out.append(
                f"  [{event['seq']}] word {event['words']}: {event['kind']} "
                f"@0x{event['pc']:x}{(' ' + extra) if extra else ''}"
            )
    return "\n".join(out) + "\n"
