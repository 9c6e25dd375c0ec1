"""The reorganizer: DAG, scheduling, packing, branch-delay filling.

The headline property: every optimization level produces a program that
computes the same results, verified under the CHECKED hazard mode (a
violated pipeline constraint raises instead of corrupting silently).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble_pieces
from repro.compiler import driver
from repro.compiler.driver import compile_source
from repro.isa.operations import AluOp, Comparison
from repro.isa.pieces import (
    Absolute,
    Alu,
    BaseIndex,
    BaseShifted,
    CompareBranch,
    Displacement,
    Imm,
    Jump,
    JumpIndirect,
    Load,
    MovImm,
    Noop,
    ReadSpecial,
    Rfs,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from repro.isa.registers import Reg, SpecialReg
from repro.isa.words import InstructionWord, can_pack, packable_form
from repro.mjlang import compile_minijava
from repro.reorg import (
    ALL_LEVELS,
    BasicBlock,
    DepKind,
    DependenceDag,
    FlowGraph,
    LOAD_DELAY,
    OptLevel,
    ScheduledBlock,
    liveness,
    min_distance,
    reorganize,
    reorganize_all_levels,
    schedule_block,
    split_blocks,
)
from repro.reorg.pipeline_model import is_barrier
from repro.sim import HazardMode, Machine
from repro.system import kernel
from repro.workloads import CORPUS, MINIJAVA_CORPUS

#: every general and special register
_EVERY_REGISTER = frozenset([*(Reg(n) for n in range(16)), *SpecialReg])


def _register_set(mask):
    """The registers a register-set mask names, for the set-based checks
    and oracles: bit n is rn, and bit 16 + k the k-th special register in
    declaration order."""
    return {Reg(n) for n in range(16) if mask >> n & 1} | {
        sreg for k, sreg in enumerate(SpecialReg) if mask >> (16 + k) & 1
    }


class TestPipelineModel:
    def test_load_consumer_distance(self):
        load = Load(Displacement(Reg(1), 0), Reg(2))
        assert min_distance(load, DepKind.RAW) == 1 + LOAD_DELAY

    def test_alu_consumer_distance(self):
        alu = Alu(AluOp.ADD, Reg(1), Reg(2), Reg(3))
        assert min_distance(alu, DepKind.RAW) == 1

    def test_anti_dependence_allows_same_word(self):
        alu = Alu(AluOp.ADD, Reg(1), Reg(2), Reg(3))
        assert min_distance(alu, DepKind.WAR) == 0


class TestDag:
    def _dag(self, source):
        return DependenceDag([p for _l, p in assemble_pieces(source)])

    def test_raw_edge(self):
        dag = self._dag("add r1, r2, r3\nadd r3, r4, r5")
        assert dag.nodes[0].succs == {1: 1}

    def test_load_use_edge_distance_two(self):
        dag = self._dag("ld 0(r1), r2\nadd r2, r3, r4")
        assert dag.nodes[0].succs[1] == 2

    def test_independent_pieces_have_no_edge(self):
        dag = self._dag("add r1, r2, r3\nadd r4, r5, r6")
        assert not dag.nodes[0].succs

    def test_war_edge_distance_zero(self):
        dag = self._dag("add r1, r2, r3\nadd r4, r5, r1")
        assert dag.nodes[0].succs == {1: 0}

    def test_waw_edge(self):
        dag = self._dag("add r1, r2, r3\nadd r4, r5, r3")
        assert dag.nodes[0].succs == {1: 1}

    def test_store_load_alias_conservative(self):
        dag = self._dag("st r1, (r2+r3)\nld 0(r4), r5")
        assert 1 in dag.nodes[0].succs

    def test_disjoint_displacements_not_ordered(self):
        dag = self._dag("st r1, 0(r2)\nld 1(r2), r3")
        assert 1 not in dag.nodes[0].succs

    def test_same_displacement_ordered(self):
        dag = self._dag("st r1, 0(r2)\nld 0(r2), r3")
        assert dag.nodes[0].succs[1] == 1

    def test_rewritten_base_defeats_disambiguation(self):
        dag = self._dag("st r1, 0(r2)\nadd r2, #4, r2\nld 1(r2), r3")
        assert 2 in dag.nodes[0].succs  # cannot prove disjoint any more

    def test_absolutes_are_order_pinned(self):
        """Distinct absolute addresses stay ordered: the absolute window
        hosts memory-mapped devices with select-then-trigger protocols
        (this once let the scheduler swap the kernel's DISK_PAGE select
        and DISK_FRAME trigger, paging in the wrong page)."""
        dag = self._dag("st r1, @100\nst r2, @101")
        assert 1 in dag.nodes[0].succs

    def test_absolute_loads_are_order_pinned(self):
        """Device reads have side effects (input queues, fault latches):
        two absolute loads must not commute."""
        dag = self._dag("ld @100, r1\nld @101, r2")
        assert 1 in dag.nodes[0].succs

    def test_displacement_loads_still_commute(self):
        dag = self._dag("ld 0(r5), r1\nld 1(r5), r2")
        assert 1 not in dag.nodes[0].succs

    def test_flow_is_a_barrier(self):
        dag = self._dag("add r1, r2, r3\nstart2: jmp start2\n")
        assert 1 in dag.nodes[0].succs

    def test_heights_follow_critical_path(self):
        dag = self._dag("ld 0(r1), r2\nadd r2, r3, r4\nadd r4, r5, r6")
        assert dag.nodes[0].height > dag.nodes[1].height > dag.nodes[2].height

    def test_topological_check(self):
        dag = self._dag("add r1, r2, r3\nadd r3, r4, r5")
        assert dag.topological_check([0, 1])
        assert not dag.topological_check([1, 0])


class TestBlocks:
    def test_split_on_labels_and_flow(self):
        stream = assemble_pieces(
            "a: add r1, r2, r3\njmp c\nb: add r1, r2, r3\nc: nop"
        )
        blocks = split_blocks(stream)
        assert len(blocks) == 3
        assert blocks[0].label == "a" and blocks[0].flow is not None
        assert blocks[1].label == "b" and blocks[1].falls_through
        assert blocks[2].label == "c"

    def test_fallthrough_links(self):
        stream = assemble_pieces("a: nop\nb: beq r1, #0, a\nnop")
        graph = FlowGraph.build(stream)
        assert graph.successors[1] == [0, 2]

    def test_unconditional_jump_does_not_fall_through(self):
        stream = assemble_pieces("a: jmp a\nb: nop")
        graph = FlowGraph.build(stream)
        assert graph.successors[0] == [0]

    def test_liveness_simple_loop(self):
        stream = assemble_pieces(
            """
            top:    add r1, #1, r1
                    bne r1, r2, top
                    mov r3, r4
            """
        )
        graph = FlowGraph.build(stream)
        live = liveness(graph)
        assert Reg(1) in _register_set(live[0])
        assert Reg(2) in _register_set(live[0])

    def test_liveness_conservative_at_stream_exit(self):
        stream = assemble_pieces("a: trap #0")
        graph = FlowGraph.build(stream)
        live = liveness(graph)
        # everything live: unknown continuation
        assert _register_set(live[0]) == _EVERY_REGISTER


SEMANTIC_CASES = {
    "straight-line": """
        start:  mov #3, r2
                movi #100, r3
                add r2, r3, r4
                st r4, @64
                ld @64, r5
                add r5, #1, r1
                trap #1
                trap #0
    """,
    "load-chains": """
        start:  lim #4096, r2
                mov #5, r3
                st r3, 0(r2)
                ld 0(r2), r4
                add r4, r4, r5
                st r5, 1(r2)
                ld 1(r2), r6
                add r6, #1, r1
                trap #1
                trap #0
    """,
    "loop": """
        start:  mov #0, r1
                mov #10, r2
        top:    add r1, r2, r1
                sub r2, #1, r2
                bne r2, #0, top
                trap #1
                trap #0
    """,
    "byte-ops": """
        start:  movi #65, r2
                lim #16384, r3
                sll r3, #2, r4
                add r4, #2, r4
                ld (r4>>2), r5
                mov r4, lo
                ic r2, r5
                st r5, (r4>>2)
                ld 0(r3), r6
                srl r6, #15, r1
                srl r1, #1, r1
                trap #1
                trap #0
    """,
    "diamond": """
        start:  mov #7, r2
                ble r2, #10, less
                mov #1, r3
                jmp join
                nop
        less:   mov #2, r3
        join:   add r3, r2, r1
                trap #1
                trap #0
    """,
}


class TestSemanticEquivalence:
    @pytest.mark.parametrize("name", sorted(SEMANTIC_CASES))
    def test_all_levels_agree(self, name):
        stream = assemble_pieces(SEMANTIC_CASES[name])
        outputs = {}
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(100_000)
            outputs[level] = machine.output
        values = list(outputs.values())
        assert all(v == values[0] for v in values), outputs

    @pytest.mark.parametrize("name", sorted(SEMANTIC_CASES))
    def test_levels_monotonically_improve(self, name):
        stream = assemble_pieces(SEMANTIC_CASES[name])
        counts = [reorganize(stream, level).static_count for level in ALL_LEVELS]
        assert counts == sorted(counts, reverse=True)


class TestReorganizerStructure:
    def test_none_level_keeps_source_order(self):
        stream = assemble_pieces("start: add r1, r2, r3\nadd r4, r5, r6\ntrap #0")
        result = reorganize(stream, OptLevel.NONE)
        nonnop = [w for _l, w in result.words if not w.is_nop]
        assert repr(nonnop[0].pieces[0]).startswith("add r1")

    def test_none_inserts_load_delay_noop(self):
        stream = assemble_pieces("start: ld 0(r1), r2\nadd r2, r3, r4\ntrap #0")
        result = reorganize(stream, OptLevel.NONE)
        assert result.noop_count >= 1

    def test_reorganize_avoids_noop_when_possible(self):
        stream = assemble_pieces(
            "start: ld 0(r1), r2\nadd r2, r3, r4\nadd r5, r6, r7\ntrap #0"
        )
        none = reorganize(stream, OptLevel.NONE)
        reorg = reorganize(stream, OptLevel.REORGANIZE)
        assert reorg.noop_count < none.noop_count

    def test_packing_reduces_count(self):
        stream = assemble_pieces(
            """
            start:  ld 0(r10), r2
                    add #1, r5, r5
                    st r5, 1(r10)
                    add #2, r6, r6
                    trap #0
            """
        )
        pack = reorganize(stream, OptLevel.PACK)
        assert pack.packed_count >= 1

    def test_branch_delay_slots_left_as_noops_before_filling(self):
        stream = assemble_pieces("start: jmp start\nnop")
        result = reorganize(stream, OptLevel.PACK)
        assert result.noop_count >= 1

    def test_fill_stats_present_only_at_full_level(self):
        stream = assemble_pieces("start: jmp start")
        assert reorganize(stream, OptLevel.PACK).fill_stats is None
        assert reorganize(stream, OptLevel.BRANCH_DELAY).fill_stats is not None

    def test_to_program_resolves_labels(self):
        stream = assemble_pieces("start: jmp start")
        program = reorganize(stream, OptLevel.NONE).to_program()
        flow = program.fetch(program.symbols["start"]).flow
        assert flow.target == program.symbols["start"]

    def test_cross_block_load_hazard_fixed(self):
        # block ends with a load; the fall-through successor reads it
        stream = assemble_pieces(
            """
            start:  ld 0(r1), r2
            next:   add r2, r3, r4
                    trap #0
            """
        )
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(1000)  # CHECKED raises if the fixup failed


class TestDelayFilling:
    def test_hoist_moves_independent_word(self):
        stream = assemble_pieces(
            """
            start:  add r4, #1, r4
                    beq r1, #0, out
                    add r2, r2, r2
            out:    trap #0
            """
        )
        result = reorganize(stream, OptLevel.BRANCH_DELAY)
        assert result.fill_stats.hoisted >= 1

    def test_branch_comparison_dependency_blocks_hoist(self):
        stream = assemble_pieces(
            """
            start:  add r1, #1, r1
                    beq r1, #0, out
            out:    trap #0
            """
        )
        result = reorganize(stream, OptLevel.BRANCH_DELAY)
        assert result.fill_stats.hoisted == 0

    def test_loop_rotation_preserves_semantics(self):
        source = """
        start:  mov #0, r1
                movi #25, r2
        top:    add r1, r2, r1
                sub r2, #1, r2
                bne r2, #0, top
                mov r1, r1
                trap #1
                trap #0
        """
        stream = assemble_pieces(source)
        for level in (OptLevel.NONE, OptLevel.BRANCH_DELAY):
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(10_000)
            assert machine.output == [sum(range(1, 26))]

    def test_rotation_target_is_frozen_against_reordering(self):
        """Regression: a rotation split label points at a block's second
        word by offset; a later hoist inside that block must not reorder
        its prefix (this once mis-executed branching boolean code)."""
        source = """
        start:  mov #5, r9
                mov #7, r10
                mov #1, r2
                beq r9, #5, Lj
                nop
                mov #0, r2
        Lj:     mov r2, r8
                trap #0?
        """
        # the exact shape that exposed it: a forward jump rotated into a
        # block whose own conditional branch then wants to hoist
        program_source = """
        start:  mov #5, r9
                mov #7, r10
                beq r9, #0, Lelse
                mov #1, r1
                jmp Ljoin
        Lelse:  mov #2, r1
        Ljoin:  mov #1, r2
                bne r9, #4, Lsc
                mov #9, r2
        Lsc:    mov r2, r1
                trap #1
                trap #0
        """
        stream = assemble_pieces(program_source)
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(1000)
            # r9 = 5: not 0 -> r1 := 1 path; join: r2 := 1; 5 != 4 so
            # branch to Lsc skips r2 := 9; result r2 == 1
            assert machine.output == [1], level

    def test_hoist_never_moves_link_register_traffic_past_jal(self):
        """Regression: a word that READS ra must not hoist into a jal's
        delay slot -- the slot executes after the link write, so the
        word would capture the callee's return address (this once sent
        a compiled function into an infinite self-return loop)."""
        source = """
        start:  mov #7, r15
                add r15, #1, r2    ; reads ra: must stay before the jal
                jal sub
                mov r2, r1
                trap #1
                trap #0
        sub:    jmpr ra
        """
        stream = assemble_pieces(source)
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(1000)
            assert machine.output == [8], level

    def test_stores_never_fill_speculatively(self):
        # the fall-through word is a store: must not move into the slot
        stream = assemble_pieces(
            """
            start:  beq r1, #0, out
                    st r2, 0(r3)
                    add r2, #1, r2
            out:    trap #0
            """
        )
        result = reorganize(stream, OptLevel.BRANCH_DELAY)
        words = [w for _l, w in result.words]
        branch_pos = next(
            i for i, w in enumerate(words) if w.flow is not None and not w.flow.is_flow is False
        )
        slot = words[branch_pos + 1]
        assert slot.mem is None or not slot.mem.is_store


# -- golden output: every real reorganizer input at every level --------------

#: sha256 over ``listing()`` + ``repr(fill_stats)`` of every corpus
#: program, MiniJava program and the kernel ROM at all four levels.  Any
#: change to the reorganizer's output -- one moved piece, one extra
#: no-op, one different fill -- changes it.
GOLDEN_REORG_DIGEST = "062cbb40a589fdfc194b521cf384ebf433b8040fd8cdcb2a9f29647d63c4e7de"


class _Captured(Exception):
    """Carries the piece stream one ``reorganize`` call received."""

    def __init__(self, stream):
        super().__init__()
        self.stream = list(stream)


def _capture_stream(module, build):
    """The stream ``module.reorganize`` receives while ``build()`` runs."""

    def record(stream, *_args, **_kwargs):
        raise _Captured(stream)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "reorganize", record)
        with pytest.raises(_Captured) as caught:
            build()
    return caught.value.stream


def reorganizer_inputs():
    """(name, stream) for every corpus program, MiniJava program and the
    kernel ROM, exactly as the compiler driver and kernel builder hand
    them to the reorganizer."""
    inputs = [
        (name, _capture_stream(driver, lambda: compile_source(source)))
        for name, source in sorted(CORPUS.items())
    ]
    inputs += [
        (name, _capture_stream(driver, lambda: compile_minijava(source)))
        for name, source in sorted(MINIJAVA_CORPUS.items())
    ]
    inputs.append(("kernel", _capture_stream(kernel, kernel.build_kernel_program)))
    return inputs


def reorganizer_digest(inputs):
    digest = hashlib.sha256()
    for name, stream in inputs:
        for level in ALL_LEVELS:
            result = reorganize(stream, level)
            record = f"{name}/{level.value}\n{result.listing()}\n{result.fill_stats!r}\n"
            digest.update(record.encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def real_inputs():
    return reorganizer_inputs()


def test_reorganizer_output_matches_golden(real_inputs):
    assert len(real_inputs) == len(CORPUS) + len(MINIJAVA_CORPUS) + 1
    assert reorganizer_digest(real_inputs) == GOLDEN_REORG_DIGEST


# -- equivalence with the pairwise-recomputing DAG and rescanning scheduler --


def _oracle_addresses_disjoint(first, second, base_written_between):
    a, b = first.addr, second.addr
    if (
        isinstance(a, Displacement)
        and isinstance(b, Displacement)
        and a.base == b.base
        and not base_written_between
    ):
        return a.disp != b.disp
    return False


def _oracle_is_io_like(piece):
    return piece.is_memory and isinstance(piece.addr, Absolute)


class _OracleDag(DependenceDag):
    """The DAG built the original way: every fact recomputed per pair."""

    def _add_edge(self, pred, succ, kind):
        distance = min_distance(self.nodes[pred].piece, kind)
        node = self.nodes[pred]
        if succ in node.succs:
            distance = max(distance, node.succs[succ])
        node.succs[succ] = distance
        self.nodes[succ].preds[pred] = distance

    def _build(self):
        pieces = [n.piece for n in self.nodes]
        for j, later in enumerate(pieces):
            j_reads = _register_set(later.reads())
            j_writes = _register_set(later.writes())
            base_written = False
            for i in range(j - 1, -1, -1):
                earlier = pieces[i]
                i_reads = _register_set(earlier.reads())
                i_writes = _register_set(earlier.writes())

                if is_barrier(earlier) or is_barrier(later):
                    self._add_edge(i, j, DepKind.ORDER)
                if earlier.is_flow or later.is_flow:
                    self._add_edge(i, j, DepKind.ORDER)
                if i_writes & j_reads:
                    self._add_edge(i, j, DepKind.RAW)
                if i_reads & j_writes:
                    self._add_edge(i, j, DepKind.WAR)
                if i_writes & j_writes:
                    self._add_edge(i, j, DepKind.WAW)

                if later.is_memory and earlier.is_memory:
                    either_stores = earlier.is_store or later.is_store
                    io_pair = _oracle_is_io_like(earlier) and _oracle_is_io_like(later)
                    if io_pair or (
                        either_stores
                        and not _oracle_addresses_disjoint(earlier, later, base_written)
                    ):
                        self._add_edge(i, j, DepKind.MEM)

                if later.is_memory and isinstance(later.addr, Displacement):
                    if later.addr.base in i_writes:
                        base_written = True

        # heights by their definition: the longest path to a sink, each
        # edge counting at least one word (edges run from lower indices)
        for node in reversed(self.nodes):
            node.height = max(
                (max(dist, 1) + self.nodes[s].height for s, dist in node.succs.items()),
                default=0,
            )


def _oracle_schedule(block, *, pack):
    """The list scheduler that rescans every node for readiness."""
    pieces = block.pieces
    if not pieces:
        return ScheduledBlock(block, [], None)

    dag = _OracleDag(pieces)
    total = len(pieces)
    scheduled_at = {}
    words = []
    flow_pos = None
    time = 0

    def ready_nodes():
        out = []
        for node in dag.nodes:
            if node.index in scheduled_at:
                continue
            if all(
                pred in scheduled_at and scheduled_at[pred] + dist <= time
                for pred, dist in node.preds.items()
            ):
                out.append(node.index)
        return out

    def choose(candidates):
        return max(
            candidates,
            key=lambda i: (dag.nodes[i].height, dag.nodes[i].piece.is_memory, -i),
        )

    def independent(a, b):
        ab = dag.nodes[a].succs.get(b)
        ba = dag.nodes[b].succs.get(a)
        return (ab is None or ab == 0) and (ba is None or ba == 0)

    while len(scheduled_at) < total:
        candidates = ready_nodes()
        if not candidates:
            words.append(InstructionWord.nop())
            time += 1
            continue

        primary = choose(candidates)
        primary_piece = pieces[primary]
        scheduled_at[primary] = time

        partner = None
        if pack and not primary_piece.is_flow and not isinstance(primary_piece, Noop):
            partner_candidates = ready_nodes()
            best = None
            for c in partner_candidates:
                piece = pieces[c]
                if piece.is_flow or isinstance(piece, Noop):
                    continue
                if not independent(primary, c):
                    continue
                if primary_piece.is_memory and not piece.is_memory:
                    mem, alu = primary_piece, piece
                elif piece.is_memory and not primary_piece.is_memory:
                    mem, alu = piece, primary_piece
                else:
                    continue
                packable = packable_form(alu)
                if packable is None or not can_pack(mem, packable):
                    continue
                score = dag.nodes[c].height
                if best is None or score > best[0]:
                    best = (score, c, mem, packable)
            if best is not None:
                partner = best[1]
                scheduled_at[partner] = time

        if partner is not None and best is not None:
            word = InstructionWord.packed(best[2], best[3])
        else:
            word = InstructionWord.single(primary_piece)

        if primary_piece.is_flow:
            flow_pos = len(words)
        words.append(word)
        time += 1

    if block.flow is not None:
        for _ in range(block.flow.delay_slots):
            words.append(InstructionWord.nop())

    return ScheduledBlock(block, words, flow_pos)


# a small register pool makes dependences between random pieces common
_regs = st.sampled_from([Reg(n) for n in (1, 2, 3, 4, 14)])
_operands = st.one_of(_regs, st.builds(Imm, st.integers(0, 15)))
_disp = st.builds(Displacement, _regs, st.integers(0, 9))
_absolute = st.builds(Absolute, st.integers(60, 63))
_addresses = st.one_of(
    _disp, _absolute, st.builds(BaseIndex, _regs, _regs), st.builds(BaseShifted, _regs, st.just(2))
)
_alu = st.builds(Alu, st.sampled_from(list(AluOp)), _operands, _operands, _regs)
_load = st.builds(Load, _addresses, _regs)
_store = st.builds(Store, _addresses, _regs)
_special = st.sampled_from([SpecialReg.LO, SpecialReg.SURPRISE])
_body_piece = st.one_of(
    _alu,
    _alu,
    _load,
    _store,
    st.builds(MovImm, st.integers(0, 255), _regs),
    st.builds(SetCond, st.sampled_from(list(Comparison)), _operands, _operands, _regs),
    st.builds(ReadSpecial, _special, _regs),
    st.builds(WriteSpecial, _special, _operands),
)


@st.composite
def _same_base_pair(draw):
    """Two references off one base, maybe with that base rewritten between."""
    base = draw(_regs)
    kinds = st.sampled_from([Load, Store])
    first = draw(kinds)(Displacement(base, draw(st.integers(0, 3))), draw(_regs))
    second = draw(kinds)(Displacement(base, draw(st.integers(0, 3))), draw(_regs))
    middle = [Alu(AluOp.ADD, Imm(1), base, base)] if draw(st.booleans()) else []
    return [first, *middle, second]


@st.composite
def _load_use(draw):
    dst = draw(_regs)
    op = draw(st.sampled_from([AluOp.ADD, AluOp.SUB]))
    return [Load(draw(_disp), dst), Alu(op, dst, draw(_regs), draw(_regs))]


@st.composite
def _packable_pair(draw):
    mem = draw(st.sampled_from([Load, Store]))(
        Displacement(draw(_regs), draw(st.integers(0, 7))), draw(_regs)
    )
    op = draw(st.sampled_from([AluOp.ADD, AluOp.OR, AluOp.MOV]))
    return [mem, Alu(op, draw(_regs), draw(_regs), draw(_regs))]


_fragments = st.one_of(
    _body_piece.map(lambda piece: [piece]),
    _same_base_pair(),
    _load_use(),
    _packable_pair(),
)
_flow = st.one_of(
    st.none(),
    st.builds(Trap, st.integers(0, 3)),
    st.builds(
        CompareBranch, st.sampled_from(list(Comparison)), _operands, _operands, st.just("L")
    ),
    st.builds(Jump, st.just("L"), st.booleans()),
    st.builds(JumpIndirect, _regs, st.booleans()),
    st.just(Rfs()),
)


@st.composite
def _blocks(draw):
    body = [piece for fragment in draw(st.lists(_fragments, max_size=14)) for piece in fragment]
    return BasicBlock(0, None, body, draw(_flow))


def _dag_shape(dag):
    return [
        (list(node.succs.items()), list(node.preds.items()), node.height) for node in dag.nodes
    ]


class TestMatchesPairwiseOracle:
    @given(_blocks())
    @settings(max_examples=300, deadline=None)
    def test_dag_and_schedule_identical(self, block):
        pieces = block.pieces
        assert _dag_shape(DependenceDag(pieces)) == _dag_shape(_OracleDag(pieces))
        for pack in (True, False):
            got = schedule_block(block, pack=pack)
            want = _oracle_schedule(block, pack=pack)
            assert (got.words, got.flow_pos) == (want.words, want.flow_pos)


# -- liveness against the set-based definition --------------------------------


def _oracle_liveness(graph):
    """Live-in registers per block, by the set-based backward dataflow:
    uses are reads not preceded by a write in the block, and a block that
    may leave the stream has every register live out."""
    use, defs = {}, {}
    for block in graph.blocks:
        use[block.index], defs[block.index] = set(), set()
        for piece in block.pieces:
            use[block.index] |= _register_set(piece.reads()) - defs[block.index]
            defs[block.index] |= _register_set(piece.writes())
    live_in = {block.index: set() for block in graph.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(graph.blocks):
            succs = graph.successors[block.index]
            exits_stream = (
                not succs
                or isinstance(block.flow, (JumpIndirect, Trap))
                or (block.target_label is not None and block.target_label not in graph.by_label)
            )
            live_out = set(_EVERY_REGISTER) if exits_stream else set()
            for s in succs:
                live_out |= live_in[s]
            new_in = use[block.index] | (live_out - defs[block.index])
            if new_in != live_in[block.index]:
                live_in[block.index] = new_in
                changed = True
    return [live_in[block.index] for block in graph.blocks]


#: branch targets: the stream's own block labels, which a drawn stream
#: may or may not place, and one that never lies in it
_stream_targets = st.sampled_from(["B0", "B1", "B2", "B3", "B4", "outside"])
_stream_flow = st.one_of(
    st.none(),
    st.builds(
        CompareBranch, st.sampled_from(list(Comparison)), _operands, _operands, _stream_targets
    ),
    st.builds(Jump, _stream_targets, st.booleans()),
    st.builds(JumpIndirect, st.sampled_from([Reg(15), Reg(2)]), st.booleans()),
    st.builds(Trap, st.integers(0, 3)),
)


@st.composite
def _streams(draw):
    """A labeled piece stream of up to six segments, each an optional
    label, a few body pieces and an optional flow piece."""
    stream = []
    for k in range(draw(st.integers(1, 6))):
        pieces = draw(st.lists(_body_piece, max_size=4))
        flow = draw(_stream_flow)
        if flow is not None:
            pieces.append(flow)
        pieces = pieces or [Noop()]
        stream.append((f"B{k}" if draw(st.booleans()) else None, pieces[0]))
        stream.extend((None, piece) for piece in pieces[1:])
    return stream


@given(_streams())
@settings(max_examples=150, deadline=None)
def test_liveness_matches_set_oracle(stream):
    graph = FlowGraph.build(stream)
    assert [_register_set(mask) for mask in liveness(graph)] == _oracle_liveness(graph)


# -- work guard: per-piece facts are computed a constant number of times -----


def test_dag_build_reads_each_piece_a_constant_number_of_times(real_inputs):
    """Building the DAG of calc's 349-piece ``fill`` block asks each piece
    for its registers a small constant number of times, not once per pair."""
    stream = dict(real_inputs)["calc"]
    fill = next(b for b in FlowGraph.build(stream).blocks if b.label == "fill")
    pieces = fill.pieces
    assert len(pieces) > 300
    calls = {"reads": 0, "writes": 0}

    def counting(name, method):
        def wrapper(self):
            calls[name] += 1
            return method(self)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for cls in {type(piece) for piece in pieces}:
            for name in calls:
                patch.setattr(cls, name, counting(name, getattr(cls, name)))
        DependenceDag(pieces)
    assert 0 < calls["reads"] <= 2 * len(pieces)
    assert 0 < calls["writes"] <= 2 * len(pieces)
