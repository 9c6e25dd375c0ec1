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

Construction summarizes every piece once (:class:`_Summary`): the
register sets it reads and writes, bit masks exactly as the piece
reports them, its memory reference, and the distance each dependence
kind demands.  It then visits each pair of pieces once, the earlier
piece from the last to the first and the later one upward from it; a
register dependence is one ``&`` of two masks.  A pair on which several
dependence kinds apply gets one edge carrying the largest of their
distances.  Every later piece's height is known by the time its edge is
written, so heights are taken in the same pass.  The graph is *not*
transitively reduced: heights, scheduling readiness and the packer's
independence test all read direct edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..isa.pieces import Absolute, Displacement, Piece
from .pipeline_model import DepKind, is_barrier, min_distance


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
        #: general and special registers read / written
        self.reads = piece.reads()
        self.writes = piece.writes()
        #: barriers and flow pieces are ordered against every other piece
        self.pinned = is_barrier(piece) or piece.is_flow
        self.memory = piece.is_memory
        self.store = piece.is_store
        addr = getattr(piece, "addr", None)  # loads and stores only
        #: absolute-addressed references may be device registers (I/O-like)
        self.absolute = isinstance(addr, Absolute)
        #: the disp(base) reference's base register bit (0 otherwise)
        self.base = addr.base.mask if isinstance(addr, Displacement) else 0
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

    def _build(self) -> None:
        nodes = self.nodes
        summaries = [_Summary(node.piece) for node in nodes]
        heights = [0] * len(nodes)
        for i in range(len(nodes) - 1, -1, -1):
            earlier = summaries[i]
            i_reads, i_writes, i_pinned = earlier.reads, earlier.writes, earlier.pinned
            i_memory, i_base = earlier.memory, earlier.base
            order, raw, war, waw = earlier.order, earlier.raw, earlier.war, earlier.waw
            i_succs = nodes[i].succs
            height = 0
            # registers written by the pieces strictly between i and j: a
            # rewritten base defeats the displacement alias check
            between = 0
            for j in range(i + 1, len(nodes)):
                later = summaries[j]
                j_writes = later.writes
                distance = order if i_pinned or later.pinned else -1
                if i_writes & later.reads and raw > distance:
                    distance = raw
                if i_reads & j_writes and war > distance:
                    distance = war
                if i_writes & j_writes and waw > distance:
                    distance = waw
                if i_memory and later.memory and earlier.mem > distance:
                    # absolute pairs (device registers) stay ordered; any
                    # other pair with a store does unless both use one
                    # unmodified base with different displacements
                    j_base = later.base
                    if (earlier.absolute and later.absolute) or (
                        (earlier.store or later.store)
                        and not (
                            j_base == i_base
                            and j_base
                            and not j_base & between
                            and earlier.disp != later.disp
                        )
                    ):
                        distance = earlier.mem
                if distance >= 0:
                    i_succs[j] = distance
                    nodes[j].preds[i] = distance
                    # every edge costs at least one word on the path
                    through = (distance if distance > 1 else 1) + heights[j]
                    if through > height:
                        height = through
                between |= j_writes
            heights[i] = nodes[i].height = height

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def topological_check(self, order: Sequence[int]) -> bool:
        """True when ``order`` respects every edge direction."""
        position = {index: at for at, index in enumerate(order)}
        return all(
            position[i] < position[s] for i in position for s in self.nodes[i].succs
        )
