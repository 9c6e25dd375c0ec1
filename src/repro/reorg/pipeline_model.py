"""The pipeline constraints the reorganizer must honor.

The machine has **no interlock hardware** (paper section 4.2.1); these
constraints are contracts the software must satisfy, expressed here as
minimum word distances between dependent instruction pieces:

- a piece that *reads* the destination of a **load** must issue at least
  two words after it (one load delay slot);
- a piece that reads an ALU/set/move result must issue at least one word
  later (results are bypassed to the next word, but pieces packed into
  the *same* word read pre-state);
- anti-dependences (write-after-read) allow the two pieces to share a
  word -- packed pieces read the register file as it was before the
  word, so the read still observes the old value;
- output dependences (write-after-write) and memory-ordering
  dependences need one word of separation;
- a flow-control piece ends its basic block: it is scheduled last, and
  its ``delay_slots`` following words execute unconditionally.
"""

from __future__ import annotations

from enum import Enum

from ..isa.pieces import Piece, ReadSpecial, Rfs, Trap, WriteSpecial

#: words between a load and the first consumer of its destination
LOAD_DELAY = 1


class DepKind(Enum):
    """Why one piece must follow another."""

    RAW = "raw"        # true dependence: reads the earlier write
    WAR = "war"        # anti-dependence: overwrites something read earlier
    WAW = "waw"        # output dependence: same destination
    MEM = "mem"        # memory ordering (potential alias)
    ORDER = "order"    # barrier ordering (flow, traps, specials)


def min_distance(pred: Piece, kind: DepKind) -> int:
    """Minimum word separation ``sched(succ) - sched(pred)``.

    Distance 0 permits the two pieces to share a packed word; distance 1
    means the successor must be in a later word; distance 2 covers the
    load delay slot.
    """
    if kind is DepKind.RAW:
        return 1 + LOAD_DELAY if pred.is_load else 1
    if kind is DepKind.WAR:
        return 0
    return 1


def is_barrier(piece: Piece) -> bool:
    """Pieces the reorganizer never moves anything across.

    Traps, return-from-surprise, and special-register traffic interact
    with state the dependence analysis does not model finely, so they
    pin the surrounding order.
    """
    return isinstance(piece, (Trap, Rfs, ReadSpecial, WriteSpecial))
