"""Shrinking failing fuzz cases to minimal repro programs.

Every generator emits its program as a list of self-contained units
(top-level statements for mini-Pascal, main-body statements for
MiniJava, atomic line groups for instruction streams), so minimization
is the shared shortest-failing-prefix bisection from
:mod:`repro.shrink`: re-render the unit prefix (the fixed epilogue
rides along), re-run the mode's oracle, keep the shortest prefix that
still diverges.  Every probe is a full oracle run, so a minimized case
is *known* to still fail -- the artifact a human gets is the smallest
program this machinery can vouch for.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..shrink import shortest_failing_prefix_items
from .case import FuzzCase
from .oracle import CheckResult, check_source


def _check_source(case: FuzzCase, source: str, max_steps: int) -> CheckResult:
    return check_source(
        case.mode, source, seed=case.seed, index=case.index, max_steps=max_steps
    )


def minimize_case(
    case: FuzzCase, *, max_steps: int = 2_000_000
) -> Optional[Dict[str, Any]]:
    """Shrink ``case`` to its shortest still-failing unit prefix.

    Returns ``None`` when the full case does not fail under the plain
    (chaos-free) oracle -- e.g. a divergence only reachable through the
    sampled fault schedule, which prefix-shrinking cannot chase.
    Otherwise returns the minimized source, its unit count, and the
    divergences the minimal program still exhibits.
    """
    full = _check_source(case, case.source, max_steps)
    if not full.failed:
        return None

    def fails(prefix: Sequence) -> bool:
        return _check_source(case, case.render(prefix), max_steps).failed

    units = shortest_failing_prefix_items(case.units, fails)
    source = case.render(units)
    result = _check_source(case, source, max_steps)
    return {
        "units": len(units),
        "units_full": len(case.units),
        "source": source,
        "divergences": result.divergences,
    }
