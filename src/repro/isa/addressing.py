"""Address modes and the on-chip segment check, defined once.

Section 2.2 fixes the load/store address forms.  Section 3.1 puts a
segmentation unit on chip: it masks the top ``n`` bits of a 32-bit
process address, inserts an ``n``-bit process identifier, and allows two
valid regions, "one residing at the top of the program's virtual 32-bit
address space, and the other at the bottom"; a reference between them
"is treated as a page fault".  The result is a 16M-word system address.

As in :mod:`repro.isa.operations`, each rule is text: the reference
stepper runs the functions compiled from it, the fast path
(:mod:`repro.sim.fastpath`) renders its handlers from it, and the kernel
loader places process images through :func:`segment_translator`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from .pieces import Absolute, BaseIndex, BaseShifted, Displacement

#: Each address mode's word address, over ``{base}`` and ``{index}`` (u32
#: register contents), the signed ``{disp}``, ``{shift}`` and ``{addr}``.
ADDRESS_EXPRESSIONS: Dict[type, str] = {
    Absolute: "{addr}",
    Displacement: "({base} + {disp}) & 4294967295",
    BaseIndex: "({base} + {index}) & 4294967295",
    BaseShifted: "{base} >> {shift}",
}

_FIELDS = dict(
    base="regs[m.base.number]", index="regs[m.index.number]",
    disp="m.disp", shift="m.shift", addr="m.addr",
)
#: the compiled table: ``f(regs, mode)`` is the word address ``mode`` names
ADDRESS_FUNCTIONS: Dict[type, Callable[[list, object], int]] = {
    mode: eval("lambda regs, m: " + expr.format(**_FIELDS))
    for mode, expr in ADDRESS_EXPRESSIONS.items()
}

#: The two-region rule over the u32 address ``{a}`` and a window's
#: numbers.  ``{to}`` receives the system address; ``{hole}`` runs
#: between the regions.
SEGMENT_CHECK = (
    "if {a} < {half}:\n"
    "    {to}{a} + {low}\n"
    "elif {a} >= {top}:\n"
    "    {to}{a} - {high}\n"
    "else:\n"
    "    {hole}"
)


def segment_window(pid: int, mask: int) -> Tuple[int, int, int, int]:
    """``(half, top, low, high)``: ``[0, half)`` maps to ``a + low`` and
    ``[top, 2**32)`` to ``a - high``, a ``2**(24 - mask)``-word segment
    numbered by the low ``mask`` bits of ``pid``."""
    space = 1 << (24 - mask)
    half = space >> 1
    low = (pid & ((1 << mask) - 1)) * space
    return half, 4294967296 - half, low, 4294967296 - space - low


@lru_cache(maxsize=None)
def segment_translator(pid: int, mask: int) -> Callable[[int], Optional[int]]:
    """:data:`SEGMENT_CHECK` with the window's numbers as literals: the
    system address of a u32 address, or None in the hole.  Cached: the
    segment registers hold at most 2**8 PIDs and 9 masks."""
    body = SEGMENT_CHECK.format(
        a="a", to="return ", hole="return None",
        **dict(zip(("half", "top", "low", "high"), segment_window(pid, mask))),
    )
    namespace: Dict[str, object] = {}
    exec("def translate(a):\n    " + body.replace("\n", "\n    "), namespace)  # noqa: S102
    return namespace["translate"]
