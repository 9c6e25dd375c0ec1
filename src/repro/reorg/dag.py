"""Machine-level dependence DAG for one basic block.

Paper, section 4.2.1, step 1 of the algorithm: "Read in a basic block
and create a machine-level dag that represents the dependencies between
individual instruction pieces."

Nodes are instruction pieces (by position); edges carry the minimum
word distance from :mod:`repro.reorg.pipeline_model`.  Memory ordering
uses a small alias analysis: two references provably distinct (different
absolute addresses, or same unmodified base register with different
displacements) need no edge; everything else is conservatively ordered
("The algorithm must also avoid reordering loads and stores that might
be aliased").

Construction summarizes every piece once (:class:`_Summary`), then
visits each pair of pieces once.  A pair on which several dependence
kinds apply gets one edge carrying the largest of their distances.  The
graph is *not* transitively reduced: heights, scheduling readiness and
the packer's independence test all read direct edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..isa.pieces import Absolute, Displacement, Piece
from ..isa.registers import NUM_REGISTERS, SpecialReg
from .pipeline_model import DepKind, is_barrier, min_distance

#: register sets become bit masks: general registers take bits
#: 0..NUM_REGISTERS-1, special registers the bits above them
_SPECIAL_BITS = {sreg: 1 << (NUM_REGISTERS + k) for k, sreg in enumerate(SpecialReg)}


def _register_mask(regs: Iterable) -> int:
    mask = 0
    for reg in regs:
        mask |= _SPECIAL_BITS[reg] if isinstance(reg, SpecialReg) else 1 << reg.number
    return mask


@dataclass
class DagNode:
    """One piece and its dependence edges (indices into the block)."""

    index: int
    piece: Piece
    #: successors: node index -> required minimum word distance
    succs: Dict[int, int] = field(default_factory=dict)
    #: predecessors: node index -> required minimum word distance
    preds: Dict[int, int] = field(default_factory=dict)
    #: longest path (in words) from this node to any sink
    height: int = 0


class _Summary:
    """Everything the pairwise dependence test needs to know of one piece."""

    __slots__ = (
        "reads", "writes", "pinned", "memory", "store", "absolute", "base", "disp",
        "raw", "war", "waw", "mem", "order",
    )

    def __init__(self, piece: Piece):
        #: general and special registers read / written, as bit masks
        self.reads = _register_mask(piece.reads()) | _register_mask(piece.reads_special())
        self.writes = _register_mask(piece.writes()) | _register_mask(piece.writes_special())
        #: barriers and flow pieces are ordered against every other piece
        self.pinned = is_barrier(piece) or piece.is_flow
        self.memory = piece.is_memory
        self.store = piece.is_store
        addr = getattr(piece, "addr", None)  # loads and stores only
        #: absolute-addressed references may be device registers (I/O-like)
        self.absolute = isinstance(addr, Absolute)
        #: the disp(base) reference's base register bit (0 otherwise)
        self.base = _register_mask((addr.base,)) if isinstance(addr, Displacement) else 0
        self.disp = addr.disp if isinstance(addr, Displacement) else 0
        #: the distance each dependence kind demands with this piece first
        self.raw = min_distance(piece, DepKind.RAW)
        self.war = min_distance(piece, DepKind.WAR)
        self.waw = min_distance(piece, DepKind.WAW)
        self.mem = min_distance(piece, DepKind.MEM)
        self.order = min_distance(piece, DepKind.ORDER)


class DependenceDag:
    """The dependence DAG over a basic block's pieces."""

    def __init__(self, pieces: Sequence[Piece]):
        self.nodes: List[DagNode] = [DagNode(i, p) for i, p in enumerate(pieces)]
        self._build()
        self._compute_heights()

    def _build(self) -> None:
        nodes = self.nodes
        summaries = [_Summary(node.piece) for node in nodes]
        for j, later in enumerate(summaries):
            j_reads, j_writes, j_pinned = later.reads, later.writes, later.pinned
            j_memory, j_base = later.memory, later.base
            j_preds = nodes[j].preds
            # whether any piece strictly between i and j rewrites j's
            # base register, which defeats the displacement alias check
            base_written = False
            for i in range(j - 1, -1, -1):
                earlier = summaries[i]
                i_writes = earlier.writes
                distance = earlier.order if j_pinned or earlier.pinned else -1
                if i_writes & j_reads and earlier.raw > distance:
                    distance = earlier.raw
                if earlier.reads & j_writes and earlier.war > distance:
                    distance = earlier.war
                if i_writes & j_writes and earlier.waw > distance:
                    distance = earlier.waw
                if j_memory and earlier.memory and earlier.mem > distance:
                    # absolute pairs (device registers) stay ordered; any
                    # other pair with a store does unless both use one
                    # unmodified base with different displacements
                    if (earlier.absolute and later.absolute) or (
                        (earlier.store or later.store)
                        and not (
                            j_base == earlier.base
                            and j_base
                            and not base_written
                            and earlier.disp != later.disp
                        )
                    ):
                        distance = earlier.mem
                if distance >= 0:
                    nodes[i].succs[j] = distance
                    j_preds[i] = distance
                if j_base & i_writes:
                    base_written = True

    def _compute_heights(self) -> None:
        for node in reversed(self.nodes):
            if node.succs:
                node.height = max(
                    max(dist, 1) + self.nodes[s].height for s, dist in node.succs.items()
                )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def topological_check(self, order: Sequence[int]) -> bool:
        """True when ``order`` respects every edge direction."""
        position = {index: at for at, index in enumerate(order)}
        return all(
            position[i] < position[s] for i in position for s in self.nodes[i].succs
        )
