"""MIPS code generation from the checked mini-Pascal AST.

The generator emits a *piece stream* (sequential semantics) that the
postpass reorganizer schedules, packs, and assembles -- the division of
labor the paper describes in section 4.2.1.

Conventions
-----------

Registers: ``r1`` function result / trap argument; ``r2``-``r7``
expression temporaries (caller-saved); ``r8``-``r11`` register-allocated
locals (callee-saved); ``r12`` frame pointer; ``r14`` stack pointer;
``r15`` return address.

Frame (stack grows down, word addressed)::

    arg i        fp + 2 + i     (pushed by the caller, arg0 deepest)
    saved ra     fp + 1
    saved fp     fp + 0
    local i      fp - 1 - i
    saved r8..   below the locals

Boolean evaluation strategy is pluggable (paper sections 2.3.1-2.3.2):
``SET_CONDITIONALLY`` uses the MIPS *Set Conditionally* instruction for
stored booleans (branch-free, Figure 3); ``BRANCHING`` models a machine
without it (jump-based 0/1 materialization).  Conditional contexts
always use compare-and-branch, which is the natural MIPS translation.

Every ``Load``/``Store`` piece carries a ``note`` tag
``{load,store}:{8,32}:{char,word}`` so the Table 7/8 reference-pattern
analysis can classify dynamic traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple, Union

from ..isa.bits import s32
from ..isa.immediates import fits_imm4, fits_movi
from ..isa.operations import (
    NEGATED_COMPARISON,
    AluOp,
    Comparison,
)
from ..isa.pieces import (
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
    LoadImm,
    LoadLabel,
    MovImm,
    Operand,
    Piece,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from ..isa.registers import FP, RA, SP, Reg, SpecialReg
from ..lang import ast
from ..lang.arith import OPERATORS
from ..lang.semantic import CheckedProgram, RoutineSymbol, VarSymbol
from ..lang.types import BOOLEAN, CHAR, INTEGER, ArrayType, RecordType, Type
from ..reorg.blocks import LabeledPiece
from .layout import BYTES_PER_WORD, Layout, LayoutStrategy

TEMP_REGS = [2, 3, 4, 5, 6, 7]
SAVED_REGS = [8, 9, 10, 11]
#: when the global-pointer convention is on, r11 holds the globals base
#: for the whole run and leaves the allocatable pool
GP_REG = Reg(11)
SAVED_REGS_WITH_GP = [8, 9, 10]
RESULT_REG = Reg(1)

TRAP_HALT = 0
TRAP_WRITE_INT = 1
TRAP_WRITE_CHAR = 2
TRAP_READ_INT = 3


class CompileError(Exception):
    pass


class BooleanStrategy(Enum):
    SET_CONDITIONALLY = "setcond"
    BRANCHING = "branching"


@dataclass
class CompileOptions:
    layout: LayoutStrategy = LayoutStrategy.WORD_ALLOCATED
    boolean_strategy: BooleanStrategy = BooleanStrategy.SET_CONDITIONALLY
    register_allocation: bool = True
    #: keep the globals base in r11 so scalar globals are reached with
    #: short displacements (the packable form); era code generators used
    #: exactly this base-register discipline
    use_global_pointer: bool = True
    #: word address where the globals region begins
    globals_base: int = 8192


@dataclass
class CompiledUnit:
    """Code generator output: the piece stream plus its metadata."""

    stream: List[LabeledPiece]
    globals_base: int
    globals_words: int
    global_addrs: Dict[str, int]
    #: every constant emitted as an instruction operand (Table 1 data)
    constants: List[int]
    needs_mul: bool = False
    needs_div: bool = False
    needs_alloc: bool = False
    options: Optional[CompileOptions] = None


_RELOP_TO_COMPARISON = {
    "=": Comparison.EQ,
    "<>": Comparison.NE,
    "<": Comparison.LT,
    "<=": Comparison.LE,
    ">": Comparison.GT,
    ">=": Comparison.GE,
}


@dataclass
class Val:
    """An evaluated expression: a constant or a value in a register."""

    reg: Optional[Reg] = None
    const: Optional[int] = None
    owned: bool = False  # generator must free the temp

    @property
    def is_const(self) -> bool:
        return self.const is not None


@dataclass
class Loc:
    """A memory location.

    ``byte_grain`` locations are byte pointers (word address * 4 + byte
    offset); word-grain locations are ``base + offset`` in words, with
    ``base is None`` meaning absolute.
    """

    byte_grain: bool
    base: Optional[Reg]
    offset: int
    char: bool
    owned_base: bool = False


class _TempPool:
    """Expression temporary allocator with liveness tracking."""

    def __init__(self) -> None:
        self.free: List[int] = list(TEMP_REGS)
        self.live: List[int] = []

    def alloc(self) -> Reg:
        if not self.free:
            raise CompileError(
                "expression too deep: out of temporaries (r2-r7)"
            )
        number = self.free.pop(0)
        self.live.append(number)
        return Reg(number)

    def release(self, reg: Reg) -> None:
        if reg.number in self.live:
            self.live.remove(reg.number)
            self.free.insert(0, reg.number)

    def live_regs(self) -> List[Reg]:
        return [Reg(n) for n in sorted(self.live)]


@dataclass
class _VarPlace:
    """Where a variable lives during one routine."""

    symbol: VarSymbol
    kind: str  # 'global' | 'frame' | 'reg' | 'byref'
    addr: int = 0       # global word address
    fp_offset: int = 0  # frame-relative word offset
    reg: Optional[Reg] = None


class CodeGenerator:
    """Generates a piece stream for one checked program."""

    def __init__(self, program: CheckedProgram, options: Optional[CompileOptions] = None):
        self.program = program
        self.options = options or CompileOptions()
        self.layout = Layout(self.options.layout)
        self.stream: List[LabeledPiece] = []
        self._pending_label: Optional[str] = None
        self._label_counter = 0
        self.constants: List[int] = []
        self.needs_mul = False
        self.needs_div = False
        self.needs_alloc = False

        self.global_addrs: Dict[str, int] = {}
        self.globals_words = 0
        self._allocate_globals()

        # per-routine state
        self.temps = _TempPool()
        self.places: Dict[str, _VarPlace] = {}
        self.consts: Dict[str, int] = dict(program.consts)
        self._frame_slots = 0
        self._hidden_slots: List[int] = []
        self._current_routine: Optional[RoutineSymbol] = None
        self._epilogue_label = ""

    # ------------------------------------------------------------------
    # emission plumbing
    # ------------------------------------------------------------------

    def emit(self, piece: Piece) -> None:
        self.stream.append((self._pending_label, piece))
        self._pending_label = None

    def emit_label(self, name: str) -> None:
        if self._pending_label is not None:
            # two labels on one spot: pin the first to a harmless move
            self.emit(Alu(AluOp.MOV, Reg(0), Imm(0), Reg(0)))
        self._pending_label = name

    def new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def use_constant(self, value: int) -> None:
        self.constants.append(value)

    # ------------------------------------------------------------------
    # constants and operands
    # ------------------------------------------------------------------

    def const_operand(self, value: int) -> Optional[Operand]:
        """An operand slot for the constant, if it fits the 4-bit field."""
        if fits_imm4(value):
            return Imm(value)
        return None

    def materialize_const(self, value: int) -> Reg:
        """Place a constant into a fresh temp (movi / lim as needed)."""
        dst = self.temps.alloc()
        self._emit_const_into(value, dst)
        return dst

    def _emit_const_into(self, value: int, dst: Reg) -> None:
        """Cheapest sequence placing ``value`` in ``dst`` (any 32-bit value)."""
        from ..isa.immediates import synthesize_large

        if fits_imm4(value):
            self.emit(Alu(AluOp.MOV, Imm(value), Imm(0), dst))
        elif fits_imm4(-value):
            self.emit(Alu(AluOp.RSUB, Imm(-value), Imm(0), dst))
        elif fits_movi(value):
            self.emit(MovImm(value, dst))
        elif -LoadImm.LIMIT <= value < LoadImm.LIMIT:
            self.emit(LoadImm(value, dst))
        else:
            scratch = self.temps.alloc()
            for piece in synthesize_large(value, dst, scratch):
                self.emit(piece)
            self.temps.release(scratch)

    def val_operand(self, val: Val) -> Operand:
        """Use a value as an instruction operand (register or 4-bit imm)."""
        if val.is_const:
            operand = self.const_operand(val.const)  # type: ignore[arg-type]
            if operand is not None:
                return operand
            return self.val_reg(val)
        assert val.reg is not None
        return val.reg

    def val_reg(self, val: Val) -> Reg:
        """Force a value into a register."""
        if val.reg is not None:
            return val.reg
        assert val.const is not None
        reg = self.materialize_const(val.const)
        val.reg = reg
        val.owned = True
        return reg

    def free_val(self, val: Val) -> None:
        if val.owned and val.reg is not None:
            self.temps.release(val.reg)
            val.owned = False

    # ------------------------------------------------------------------
    # program structure
    # ------------------------------------------------------------------

    def _allocate_globals(self) -> None:
        # scalars first: with the global-pointer convention their
        # displacements stay small enough for the packed short form
        addr = self.options.globals_base
        ordered = sorted(
            self.program.globals.items(),
            key=lambda item: 0 if item[1].type.is_scalar else 1,
        )
        for name, symbol in ordered:
            self.global_addrs[name] = addr
            addr += self.layout.type_words(symbol.type)
        self.globals_words = addr - self.options.globals_base

    @property
    def saved_regs(self) -> List[int]:
        if self.options.use_global_pointer:
            return SAVED_REGS_WITH_GP
        return SAVED_REGS

    def generate(self) -> CompiledUnit:
        """Generate the whole program: main body first, then routines."""
        self._gen_main()
        for routine in self.program.routines.values():
            self._gen_routine(routine)
        if self._pending_label is not None:
            self.emit(Alu(AluOp.MOV, Reg(0), Imm(0), Reg(0)))
        return CompiledUnit(
            self.stream,
            self.options.globals_base,
            self.globals_words,
            dict(self.global_addrs),
            list(self.constants),
            self.needs_mul,
            self.needs_div,
            self.needs_alloc,
            self.options,
        )

    def _gen_main(self) -> None:
        self.places = {}
        self.temps = _TempPool()
        self._frame_slots = 0
        self._current_routine = None
        self.consts = dict(self.program.consts)
        if self.options.register_allocation:
            self._allocate_main_globals()
        self.emit_label("start")
        if self.options.use_global_pointer:
            self.emit(LoadImm(self.options.globals_base, GP_REG))
        # main gets a frame for hidden slots (for-loop limits, spills)
        self.emit(Alu(AluOp.MOV, SP, Imm(0), FP))
        frame_fixup = len(self.stream)
        self.emit(Alu(AluOp.SUB, SP, Imm(0), SP))  # patched below
        self._gen_stmt(self.program.ast.body)
        self.emit(Trap(TRAP_HALT))
        self._patch_frame(frame_fixup)

    def _patch_frame(self, index: int) -> None:
        """Rewrite the frame-allocation placeholder with the final size."""
        label, _old = self.stream[index]
        size = self._frame_slots
        if fits_imm4(size):
            self.stream[index] = (label, Alu(AluOp.SUB, SP, Imm(size), SP))
        else:
            # large frame: materialize the size into a scratch register
            if size >= LoadImm.LIMIT:
                raise CompileError(f"frame too large: {size} words")
            first: Piece = (
                MovImm(size, Reg(7)) if fits_movi(size) else LoadImm(size, Reg(7))
            )
            self.stream[index] = (label, first)
            self.stream.insert(index + 1, (None, Alu(AluOp.SUB, SP, Reg(7), SP)))

    def _alloc_hidden_slot(self) -> int:
        """A compiler-private frame slot (fp-relative offset)."""
        slot = self._frame_slots
        self._frame_slots += 1
        return -(1 + slot)

    # -- register allocation -------------------------------------------------

    def _allocate_main_globals(self) -> None:
        """Promote hot scalar globals used only by the main body to registers.

        A global referenced by any routine (or whose address escapes to
        a var parameter) stays in memory; the rest are ranked by the
        main body's weighted use counts.  Registers and globals both
        start at zero, so no initialization is needed.
        """
        import types

        main_shim = types.SimpleNamespace(body=self.program.ast.body)
        touched_by_routines: Set[str] = set()
        for routine_symbol in self.program.routines.values():
            node = routine_symbol.ast_node
            if node is None:
                continue
            local_names = {p.name for p in routine_symbol.params}
            local_names |= {v.name for v in routine_symbol.locals}
            local_names.add(routine_symbol.name)
            for name, count in self._count_uses(node).items():
                if name not in local_names and count > 0:
                    touched_by_routines.add(name)
            touched_by_routines |= self._collect_addressed(node)  # type: ignore[arg-type]
        addressed = self._collect_addressed(main_shim)  # type: ignore[arg-type]
        counts = self._count_uses(main_shim)  # type: ignore[arg-type]
        candidates = []
        for name, symbol in self.program.globals.items():
            if not symbol.type.is_scalar:
                continue
            if name in touched_by_routines or name in addressed:
                continue
            count = counts.get(name, 0)
            if count > 2:
                candidates.append((count, name))
        candidates.sort(reverse=True)
        for (count, name), number in zip(candidates, self.saved_regs):
            self.places[name] = _VarPlace(
                self.program.globals[name], "reg", reg=Reg(number)
            )

    def _collect_addressed(self, routine: ast.Routine) -> Set[str]:
        """Names whose address escapes (var-parameter arguments)."""
        addressed: Set[str] = set()

        def visit_call(name: str, args: List[ast.Expr]) -> None:
            symbol = self.program.routines.get(name)
            if symbol is None:
                return
            for arg, param in zip(args, symbol.params):
                if param.by_ref and isinstance(arg, ast.VarRef):
                    addressed.add(arg.name)

        def walk_expr(expr: Optional[ast.Expr]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.CallExpr):
                visit_call(expr.name, expr.args)
                for arg in expr.args:
                    walk_expr(arg)
            elif isinstance(expr, ast.BinOp):
                walk_expr(expr.left)
                walk_expr(expr.right)
            elif isinstance(expr, ast.UnOp):
                walk_expr(expr.operand)
            elif isinstance(expr, ast.Index):
                walk_expr(expr.base)
                walk_expr(expr.index)
            elif isinstance(expr, ast.FieldAccess):
                walk_expr(expr.base)
            elif isinstance(expr, ast.MemWord):
                walk_expr(expr.base)
            elif isinstance(expr, ast.GlobalAddr):
                # the global's memory address escapes: keep it in memory
                addressed.add(expr.name)
            elif isinstance(expr, ast.CallIndirect):
                walk_expr(expr.target)
                for arg in expr.args:
                    walk_expr(arg)
            elif isinstance(expr, ast.AllocWords):
                walk_expr(expr.size)

        def walk(stmt: Optional[ast.Stmt]) -> None:
            if stmt is None:
                return
            if isinstance(stmt, ast.Compound):
                for inner in stmt.body:
                    walk(inner)
            elif isinstance(stmt, ast.Assign):
                walk_expr(stmt.target)
                walk_expr(stmt.value)
            elif isinstance(stmt, ast.CallStmt):
                visit_call(stmt.name, stmt.args)
                for arg in stmt.args:
                    walk_expr(arg)
            elif isinstance(stmt, ast.If):
                walk_expr(stmt.cond)
                walk(stmt.then_branch)
                walk(stmt.else_branch)
            elif isinstance(stmt, ast.While):
                walk_expr(stmt.cond)
                walk(stmt.body)
            elif isinstance(stmt, ast.Repeat):
                for inner in stmt.body:
                    walk(inner)
                walk_expr(stmt.cond)
            elif isinstance(stmt, ast.For):
                walk_expr(stmt.start)
                walk_expr(stmt.stop)
                walk(stmt.body)
            elif isinstance(stmt, ast.Write):
                for arg in stmt.args:
                    walk_expr(arg)
            elif isinstance(stmt, ast.Read):
                walk_expr(stmt.target)

        walk(routine.body)
        return addressed

    def _count_uses(self, routine: ast.Routine) -> Dict[str, int]:
        counts: Dict[str, int] = {}

        def bump(name: str, weight: int = 1) -> None:
            counts[name] = counts.get(name, 0) + weight

        def walk_expr(expr: Optional[ast.Expr], weight: int) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.VarRef):
                bump(expr.name, weight)
            elif isinstance(expr, ast.BinOp):
                walk_expr(expr.left, weight)
                walk_expr(expr.right, weight)
            elif isinstance(expr, ast.UnOp):
                walk_expr(expr.operand, weight)
            elif isinstance(expr, ast.Index):
                walk_expr(expr.base, weight)
                walk_expr(expr.index, weight)
            elif isinstance(expr, ast.FieldAccess):
                walk_expr(expr.base, weight)
            elif isinstance(expr, ast.CallExpr):
                for arg in expr.args:
                    walk_expr(arg, weight)
            elif isinstance(expr, ast.MemWord):
                walk_expr(expr.base, weight)
            elif isinstance(expr, ast.CallIndirect):
                walk_expr(expr.target, weight)
                for arg in expr.args:
                    walk_expr(arg, weight)
            elif isinstance(expr, ast.AllocWords):
                walk_expr(expr.size, weight)

        def walk(stmt: Optional[ast.Stmt], weight: int) -> None:
            if stmt is None:
                return
            if isinstance(stmt, ast.Compound):
                for inner in stmt.body:
                    walk(inner, weight)
            elif isinstance(stmt, ast.Assign):
                walk_expr(stmt.target, weight)
                walk_expr(stmt.value, weight)
            elif isinstance(stmt, ast.CallStmt):
                for arg in stmt.args:
                    walk_expr(arg, weight)
            elif isinstance(stmt, ast.If):
                walk_expr(stmt.cond, weight)
                walk(stmt.then_branch, weight)
                walk(stmt.else_branch, weight)
            elif isinstance(stmt, ast.While):
                walk_expr(stmt.cond, weight * 8)
                walk(stmt.body, weight * 8)
            elif isinstance(stmt, ast.Repeat):
                for inner in stmt.body:
                    walk(inner, weight * 8)
                walk_expr(stmt.cond, weight * 8)
            elif isinstance(stmt, ast.For):
                bump(stmt.var, weight * 8)
                walk_expr(stmt.start, weight)
                walk_expr(stmt.stop, weight)
                walk(stmt.body, weight * 8)
            elif isinstance(stmt, ast.Write):
                for arg in stmt.args:
                    walk_expr(arg, weight)
            elif isinstance(stmt, ast.Read):
                walk_expr(stmt.target, weight)

        walk(routine.body, 1)
        return counts

    # -- routines ------------------------------------------------------------

    def _gen_routine(self, symbol: RoutineSymbol) -> None:
        routine = symbol.ast_node
        assert routine is not None
        self.places = {}
        self.temps = _TempPool()
        self._frame_slots = 0
        self._current_routine = symbol
        self._epilogue_label = f"{symbol.name}__ret"
        self.consts = dict(self.program.consts)
        self.consts.update({c.name: c.value for c in routine.consts})

        # decide register allocation
        reg_assignment: Dict[str, Reg] = {}
        if self.options.register_allocation:
            addressed = self._collect_addressed(routine)
            counts = self._count_uses(routine)
            candidates = []
            scalars = list(symbol.params) + list(symbol.locals)
            if symbol.is_function:
                scalars.append(
                    VarSymbol(symbol.name, symbol.result, "result", routine=symbol.name)  # type: ignore[arg-type]
                )
            for var in scalars:
                if var.by_ref or not var.type.is_scalar or var.name in addressed:
                    continue
                candidates.append((counts.get(var.name, 0), var.name))
            candidates.sort(reverse=True)
            # the callee-save push/pop (and the parameter copy) cost ~4
            # memory references per call: only promote variables whose
            # weighted use count amortizes that
            worthwhile = [(c, n) for c, n in candidates if c > 4]
            for (count, name), number in zip(worthwhile, self.saved_regs):
                reg_assignment[name] = Reg(number)

        # lay out the frame
        for i, param in enumerate(symbol.params):
            if param.name in reg_assignment:
                self.places[param.name] = _VarPlace(
                    param, "reg", reg=reg_assignment[param.name], fp_offset=2 + i
                )
            elif param.by_ref:
                self.places[param.name] = _VarPlace(param, "byref", fp_offset=2 + i)
            else:
                self.places[param.name] = _VarPlace(param, "frame", fp_offset=2 + i)
        for local in symbol.locals:
            if local.name in reg_assignment:
                self.places[local.name] = _VarPlace(local, "reg", reg=reg_assignment[local.name])
            else:
                words = self.layout.type_words(local.type)
                first = self._frame_slots
                self._frame_slots += words
                # slot block occupies fp-1-first .. fp-first-words; the
                # variable's offset addresses its lowest word
                self.places[local.name] = _VarPlace(
                    local, "frame", fp_offset=-(first + words)
                )
        if symbol.is_function and symbol.name not in self.places:
            slot = self._alloc_hidden_slot()
            result_sym = VarSymbol(symbol.name, symbol.result, "result", routine=symbol.name)  # type: ignore[arg-type]
            self.places[symbol.name] = _VarPlace(result_sym, "frame", fp_offset=slot)
        elif symbol.is_function and symbol.name in reg_assignment:
            result_sym = VarSymbol(symbol.name, symbol.result, "result", routine=symbol.name)  # type: ignore[arg-type]
            self.places[symbol.name] = _VarPlace(
                result_sym, "reg", reg=reg_assignment[symbol.name]
            )

        used_saved = sorted({p.reg.number for p in self.places.values() if p.kind == "reg"})

        # prologue
        self.emit_label(symbol.name)
        self.emit(Alu(AluOp.SUB, SP, Imm(2), SP))
        self.emit(Store(Displacement(SP, 1), RA, note="store:32:word"))
        self.emit(Store(Displacement(SP, 0), FP, note="store:32:word"))
        self.emit(Alu(AluOp.MOV, SP, Imm(0), FP))
        frame_fixup = len(self.stream)
        self.emit(Alu(AluOp.SUB, SP, Imm(0), SP))  # patched with the frame size
        for number in used_saved:
            self.emit(Alu(AluOp.SUB, SP, Imm(1), SP))
            self.emit(Store(Displacement(SP, 0), Reg(number), note="store:32:word"))
        # copy register-assigned parameters from their stack slots
        for place in self.places.values():
            if place.kind == "reg" and place.symbol.kind == "param":
                self.emit(
                    Load(Displacement(FP, place.fp_offset), place.reg, note="load:32:word")
                )

        self._gen_stmt(routine.body)

        # epilogue
        self.emit_label(self._epilogue_label)
        if symbol.is_function:
            place = self.places[symbol.name]
            if place.kind == "reg":
                assert place.reg is not None
                self.emit(Alu(AluOp.MOV, place.reg, Imm(0), RESULT_REG))
            else:
                self.emit(
                    Load(Displacement(FP, place.fp_offset), RESULT_REG, note="load:32:word")
                )
        for number in reversed(used_saved):
            self.emit(Load(Displacement(SP, 0), Reg(number), note="load:32:word"))
            self.emit(Alu(AluOp.ADD, SP, Imm(1), SP))
        self.emit(Alu(AluOp.MOV, FP, Imm(0), SP))
        self.emit(Load(Displacement(SP, 1), RA, note="load:32:word"))
        self.emit(Load(Displacement(SP, 0), FP, note="load:32:word"))
        self.emit(Alu(AluOp.ADD, SP, Imm(2), SP))
        self.emit(JumpIndirect(RA))
        self._patch_frame(frame_fixup)

    # ------------------------------------------------------------------
    # locations
    # ------------------------------------------------------------------

    def _place(self, name: str) -> _VarPlace:
        if name in self.places:
            return self.places[name]
        if name in self.program.globals:
            symbol = self.program.globals[name]
            return _VarPlace(symbol, "global", addr=self.global_addrs[name])
        raise CompileError(f"no storage for {name!r}")

    def resolve_loc(self, expr: ast.Expr) -> Loc:
        """Resolve a designator to a memory location.

        Register-resident scalars never reach here; callers check
        :meth:`reg_place` first.
        """
        if isinstance(expr, ast.VarRef):
            place = self._place(expr.name)
            char = place.symbol.type.is_byte_natured
            if place.kind == "global":
                if self.options.use_global_pointer:
                    offset = place.addr - self.options.globals_base
                    return Loc(False, GP_REG, offset, char)
                return Loc(False, None, place.addr, char)
            if place.kind == "frame":
                return Loc(False, FP, place.fp_offset, char)
            if place.kind == "byref":
                reg = self.temps.alloc()
                self.emit(
                    Load(Displacement(FP, place.fp_offset), reg, note="load:32:word")
                )
                return Loc(False, reg, 0, char, owned_base=True)
            raise CompileError(f"{expr.name!r} lives in a register")

        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            array_type = expr.base.type  # type: ignore[attr-defined]
            assert isinstance(array_type, ArrayType)
            base = self.resolve_loc(expr.base)
            if base.byte_grain:
                raise CompileError("array of byte-grain aggregates is unsupported")
            index = self.gen_expr(expr.index)
            byte_grain = self.layout.element_byte_grain(array_type)
            char = array_type.element.is_byte_natured
            if byte_grain:
                return self._byte_element_loc(base, index, array_type, char)
            elem_words = self.layout.element_words(array_type)
            if index.is_const:
                offset = (index.const - array_type.low) * elem_words  # type: ignore[operand-type]
                return Loc(False, base.base, base.offset + offset, char, base.owned_base)
            scaled = self._scale_index(index, elem_words, array_type.low)
            if base.base is None:
                return Loc(False, scaled, base.offset, char, owned_base=True)
            combined = scaled
            self.emit(Alu(AluOp.ADD, base.base, scaled, combined))
            if base.owned_base:
                self.temps.release(base.base)
            return Loc(False, combined, base.offset, char, owned_base=True)

        if isinstance(expr, ast.FieldAccess):
            assert expr.base is not None
            record_type = expr.base.type  # type: ignore[attr-defined]
            assert isinstance(record_type, RecordType)
            base = self.resolve_loc(expr.base)
            slot = self.layout.field_slot(record_type, expr.field_name)
            field_type = record_type.field_type(expr.field_name)
            assert field_type is not None
            char = field_type.is_byte_natured
            if not slot.byte_grain:
                return Loc(
                    False, base.base, base.offset + slot.word_offset, char, base.owned_base
                )
            # byte-grain field: form the byte pointer
            word_off = base.offset + slot.word_offset
            if base.base is None:
                return Loc(True, None, word_off * BYTES_PER_WORD + slot.byte_offset, char)
            ptr = self.temps.alloc()
            self._emit_add_const(base.base, word_off, ptr)
            self.emit(Alu(AluOp.SLL, ptr, Imm(2), ptr))
            self._emit_add_const(ptr, slot.byte_offset, ptr)
            if base.owned_base:
                self.temps.release(base.base)
            return Loc(True, ptr, 0, char, owned_base=True)

        if isinstance(expr, ast.MemWord):
            # heap word: base expression + constant word offset
            assert expr.base is not None
            base = self.gen_expr(expr.base)
            if base.is_const:
                return Loc(False, None, base.const + expr.offset, False)  # type: ignore[operator]
            reg = self.val_reg(base)
            return Loc(False, reg, expr.offset, False, owned_base=base.owned)

        raise CompileError(f"not a designator: {expr!r}")

    def _byte_element_loc(
        self, base: Loc, index: Val, array_type: ArrayType, char: bool
    ) -> Loc:
        """Byte pointer for an element of a byte-grain array."""
        low = array_type.low
        if index.is_const and base.base is None:
            byte_ptr = base.offset * BYTES_PER_WORD + (index.const - low)  # type: ignore[operand-type]
            return Loc(True, None, byte_ptr, char)
        ptr = self.temps.alloc()
        if base.base is None:
            self.emit(LoadImm(base.offset * BYTES_PER_WORD, ptr))
        else:
            self._emit_add_const(base.base, base.offset, ptr)
            self.emit(Alu(AluOp.SLL, ptr, Imm(2), ptr))
            if base.owned_base:
                self.temps.release(base.base)
        index_op = self.val_operand(index)
        if index.is_const and fits_imm4(index.const - low):  # type: ignore[operand-type]
            self.emit(Alu(AluOp.ADD, ptr, Imm(index.const - low), ptr))  # type: ignore[operand-type]
        else:
            reg = self.val_reg(index)
            self.emit(Alu(AluOp.ADD, ptr, reg, ptr))
            if low:
                self._emit_add_const(ptr, -low, ptr)
        self.free_val(index)
        return Loc(True, ptr, 0, char, owned_base=True)

    def _scale_index(self, index: Val, elem_words: int, low: int) -> Reg:
        """(index - low) * elem_words into a fresh temp."""
        reg = self.val_reg(index)
        out = self.temps.alloc()
        self.emit(Alu(AluOp.MOV, reg, Imm(0), out))
        self.free_val(index)
        if low:
            self._emit_add_const(out, -low, out)
        if elem_words != 1:
            if elem_words & (elem_words - 1) == 0:
                shift = elem_words.bit_length() - 1
                self.emit(Alu(AluOp.SLL, out, Imm(shift), out))
            else:
                out2 = self._runtime_mul_const(out, elem_words)
                self.temps.release(out)
                return out2
        return out

    def _runtime_mul_const(self, reg: Reg, value: int) -> Reg:
        """Multiply by a non-power-of-two constant with shifts and adds."""
        out = self.temps.alloc()
        shifts = [i for i in range(32) if value & (1 << i)]
        first = True
        scratch = self.temps.alloc()
        for shift in shifts:
            if shift == 0:
                source: Operand = reg
            else:
                # chain through the 4-bit shift field for set bits >= 16
                step = min(shift, 15)
                self.emit(Alu(AluOp.SLL, reg, Imm(step), scratch))
                remaining = shift - step
                while remaining > 0:
                    step = min(remaining, 15)
                    self.emit(Alu(AluOp.SLL, scratch, Imm(step), scratch))
                    remaining -= step
                source = scratch
            if first:
                self.emit(Alu(AluOp.MOV, source, Imm(0), out))
                first = False
            else:
                self.emit(Alu(AluOp.ADD, out, source, out))
        self.temps.release(scratch)
        return out

    def _emit_add_const(self, src: Reg, value: int, dst: Reg) -> None:
        """dst := src + value using the cheapest constant form."""
        if value == 0:
            if src != dst:
                self.emit(Alu(AluOp.MOV, src, Imm(0), dst))
            return
        if fits_imm4(value):
            self.emit(Alu(AluOp.ADD, src, Imm(value), dst))
        elif fits_imm4(-value):
            self.emit(Alu(AluOp.SUB, src, Imm(-value), dst))
        else:
            temp = self.materialize_const(value)
            self.emit(Alu(AluOp.ADD, src, temp, dst))
            self.temps.release(temp)

    def free_loc(self, loc: Loc) -> None:
        if loc.owned_base and loc.base is not None:
            self.temps.release(loc.base)

    # ------------------------------------------------------------------
    # loads and stores
    # ------------------------------------------------------------------

    def load_loc(self, loc: Loc) -> Reg:
        """Load from a resolved location into a fresh temp."""
        dst = self.temps.alloc()
        kind = "char" if loc.char else "word"
        if not loc.byte_grain:
            address = self._word_address(loc)
            self.emit(Load(address, dst, note=f"load:32:{kind}"))
        elif loc.base is None:
            # constant byte pointer: the selector is a literal
            word_addr = loc.offset // BYTES_PER_WORD
            selector = loc.offset % BYTES_PER_WORD
            self.emit(Load(Absolute(word_addr), dst, note=f"load:8:{kind}"))
            self.emit(Alu(AluOp.XC, Imm(selector), dst, dst))
        else:
            self.emit(Load(BaseShifted(loc.base, 2), dst, note=f"load:8:{kind}"))
            self.emit(Alu(AluOp.XC, loc.base, dst, dst))
        return dst

    def store_loc(self, loc: Loc, value: Val) -> None:
        """Store a value to a resolved location."""
        kind = "char" if loc.char else "word"
        if not loc.byte_grain:
            reg = self.val_reg(value)
            address = self._word_address(loc)
            self.emit(Store(address, reg, note=f"store:32:{kind}"))
            return
        # byte store: fetch word, insert, store back (paper section 4.1)
        reg = self.val_reg(value)
        word = self.temps.alloc()
        if loc.base is None:
            word_addr = loc.offset // BYTES_PER_WORD
            selector = loc.offset % BYTES_PER_WORD
            self.emit(Load(Absolute(word_addr), word, note=f"load:8:{kind}"))
            self.emit(WriteSpecial(SpecialReg.LO, Imm(selector)))
            self.emit(Alu(AluOp.IC, reg, Imm(0), word))
            self.emit(Store(Absolute(word_addr), word, note=f"store:8:{kind}"))
        else:
            self.emit(Load(BaseShifted(loc.base, 2), word, note=f"load:8:{kind}"))
            self.emit(WriteSpecial(SpecialReg.LO, loc.base))
            self.emit(Alu(AluOp.IC, reg, Imm(0), word))
            self.emit(Store(BaseShifted(loc.base, 2), word, note=f"store:8:{kind}"))
        self.temps.release(word)

    def _word_address(self, loc: Loc):
        if loc.base is None:
            return Absolute(loc.offset)
        return Displacement(loc.base, loc.offset)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def reg_place(self, expr: ast.Expr) -> Optional[_VarPlace]:
        """The register place of a VarRef, if it has one."""
        if isinstance(expr, ast.VarRef) and expr.name in self.places:
            place = self.places[expr.name]
            if place.kind == "reg":
                return place
        return None

    def gen_expr(self, expr: ast.Expr) -> Val:
        """Evaluate an expression to a :class:`Val`."""
        if isinstance(expr, ast.IntLit):
            self.use_constant(expr.value)
            return Val(const=expr.value)
        if isinstance(expr, ast.CharLit):
            self.use_constant(expr.value)
            return Val(const=expr.value)
        if isinstance(expr, ast.BoolLit):
            self.use_constant(int(expr.value))
            return Val(const=int(expr.value))
        if isinstance(expr, ast.StringLit):
            raise CompileError("string literals are only allowed in write()")
        if isinstance(expr, ast.VarRef):
            if getattr(expr, "implicit_call", False):
                return self.gen_call(expr.name, [], want_result=True)
            const_value = getattr(expr, "const_value", None)
            if const_value is None and expr.name in self.consts:
                const_value = self.consts[expr.name]
            if const_value is not None:
                self.use_constant(const_value)
                return Val(const=const_value)
            place = self.reg_place(expr)
            if place is not None:
                assert place.reg is not None
                return Val(reg=place.reg, owned=False)
            loc = self.resolve_loc(expr)
            reg = self.load_loc(loc)
            self.free_loc(loc)
            return Val(reg=reg, owned=True)
        if isinstance(expr, (ast.Index, ast.FieldAccess, ast.MemWord)):
            loc = self.resolve_loc(expr)
            reg = self.load_loc(loc)
            self.free_loc(loc)
            return Val(reg=reg, owned=True)
        if isinstance(expr, ast.UnOp):
            return self._gen_unop(expr)
        if isinstance(expr, ast.BinOp):
            return self._gen_binop(expr)
        if isinstance(expr, ast.CallExpr):
            return self._gen_call_expr(expr)
        if isinstance(expr, ast.LabelAddr):
            out = self.temps.alloc()
            self.emit(LoadLabel(expr.label, out))
            return Val(reg=out, owned=True)
        if isinstance(expr, ast.GlobalAddr):
            addr = self.global_addrs[expr.name]
            self.use_constant(addr)
            return Val(const=addr)
        if isinstance(expr, ast.CallIndirect):
            return self._gen_call_indirect(expr)
        if isinstance(expr, ast.AllocWords):
            return self._gen_alloc(expr)
        raise CompileError(f"unhandled expression {expr!r}")

    def _gen_unop(self, expr: ast.UnOp) -> Val:
        assert expr.operand is not None
        if expr.op == "-":
            value = self.gen_expr(expr.operand)
            if value.is_const:
                return Val(const=-value.const)  # type: ignore[operand-type]
            out = self.temps.alloc()
            self.emit(Alu(AluOp.RSUB, value.reg, Imm(0), out))
            self.free_val(value)
            return Val(reg=out, owned=True)
        # not
        if self.options.boolean_strategy is BooleanStrategy.BRANCHING:
            return self._gen_bool_by_branching(expr)
        value = self.gen_expr(expr.operand)
        if value.is_const:
            return Val(const=1 - value.const)  # type: ignore[operand-type]
        out = self.temps.alloc()
        self.emit(Alu(AluOp.XOR, value.reg, Imm(1), out))
        self.free_val(value)
        return Val(reg=out, owned=True)

    def _gen_binop(self, expr: ast.BinOp) -> Val:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op in ("+", "-", "*", "div", "mod"):
            return self._gen_arith(expr)
        if op in _RELOP_TO_COMPARISON:
            if self.options.boolean_strategy is BooleanStrategy.BRANCHING:
                return self._gen_bool_by_branching(expr)
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            out = self.temps.alloc()
            self.emit(
                SetCond(
                    _RELOP_TO_COMPARISON[op],
                    self.val_operand(left),
                    self.val_operand(right),
                    out,
                )
            )
            self.free_val(left)
            self.free_val(right)
            return Val(reg=out, owned=True)
        if op in ("and", "or"):
            if self.options.boolean_strategy is BooleanStrategy.BRANCHING:
                return self._gen_bool_by_branching(expr)
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            out = self.temps.alloc()
            alu = AluOp.AND if op == "and" else AluOp.OR
            self.emit(Alu(alu, self.val_operand(left), self.val_operand(right), out))
            self.free_val(left)
            self.free_val(right)
            return Val(reg=out, owned=True)
        raise CompileError(f"unhandled operator {op!r}")

    def _gen_arith(self, expr: ast.BinOp) -> Val:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        left = self.gen_expr(expr.left)
        # constant folding: on the operands' 32-bit images, exactly as run
        # time computes; a zero divisor is left to trap at run time
        if left.is_const and isinstance(expr.right, (ast.IntLit, ast.CharLit)):
            try:
                return Val(const=OPERATORS[op](left.const, expr.right.value))
            except ZeroDivisionError:
                pass

        if op in ("+", "-"):
            right = self.gen_expr(expr.right)
            out = self.temps.alloc()
            alu = AluOp.ADD if op == "+" else AluOp.SUB
            if op == "-" and right.is_const and not fits_imm4(right.const or 0):
                # x - big  ==  x + (-big) handled via add of materialized
                reg = self.val_reg(right)
                self.emit(Alu(AluOp.SUB, self.val_operand(left), reg, out))
            else:
                self.emit(
                    Alu(alu, self.val_operand(left), self.val_operand(right), out)
                )
            self.free_val(left)
            self.free_val(right)
            return Val(reg=out, owned=True)

        if op == "*":
            right = self.gen_expr(expr.right)
            const, other = (
                (right, left)
                if right.is_const
                else (left, right) if left.is_const else (None, None)
            )
            if const is not None and other is not None:
                value = s32(const.const)  # the image the register holds
                if value == 0:
                    self.free_val(other)
                    return Val(const=0)
                if value == 1:
                    return other
                if value > 0 and bin(value).count("1") <= 8:
                    # shift-and-add expansion: ~2 ops per set bit beats
                    # the ~200-cycle software multiply loop decisively
                    reg = self.val_reg(other)
                    out = self._runtime_mul_const(reg, value)
                    self.free_val(other)
                    return Val(reg=out, owned=True)
            self.needs_mul = True
            return self._gen_runtime_binary("__mul", left, right, result_reg=1)

        # div / mod: a divisor whose 32-bit image is a positive power of
        # two strength-reduces to a short sign-correct shift sequence
        # (truncation toward zero)
        divisor = s32(expr.right.value) if isinstance(expr.right, ast.IntLit) else 0
        if divisor > 0:
            if divisor == 1:
                if op == "div":
                    return left
                self.free_val(left)
                return Val(const=0)
            if divisor & (divisor - 1) == 0:
                return self._gen_pow2_divmod(left, divisor, want_mod=(op == "mod"))

        right = self.gen_expr(expr.right)
        self.needs_div = True
        return self._gen_runtime_binary(
            "__divmod", left, right, result_reg=1 if op == "div" else 4
        )

    def _gen_pow2_divmod(self, left: Val, divisor: int, want_mod: bool) -> Val:
        """``x div 2**k`` / ``x mod 2**k`` with Pascal truncation.

        bias = (x >> 31) & (2**k - 1); q = (x + bias) >>a k;
        r = x - (q << k).  Correct for negative dividends, no branches,
        no overflow (the bias never pushes x past zero).
        """
        k = divisor.bit_length() - 1
        x = self.val_reg(left)
        sign = self.temps.alloc()
        # arithmetic shift right by 31, within the 4-bit shift field
        self.emit(Alu(AluOp.SRA, x, Imm(15), sign))
        self.emit(Alu(AluOp.SRA, sign, Imm(15), sign))
        self.emit(Alu(AluOp.SRA, sign, Imm(1), sign))
        mask = divisor - 1
        if fits_imm4(mask):
            self.emit(Alu(AluOp.AND, sign, Imm(mask), sign))
        else:
            mask_reg = self.materialize_const(mask)
            self.emit(Alu(AluOp.AND, sign, mask_reg, sign))
            self.temps.release(mask_reg)
        quotient = self.temps.alloc()
        self.emit(Alu(AluOp.ADD, x, sign, quotient))
        self.temps.release(sign)
        self._emit_shift(AluOp.SRA, quotient, k)
        if not want_mod:
            self.free_val(left)
            return Val(reg=quotient, owned=True)
        self._emit_shift(AluOp.SLL, quotient, k)
        remainder = self.temps.alloc()
        self.emit(Alu(AluOp.SUB, x, quotient, remainder))
        self.temps.release(quotient)
        self.free_val(left)
        return Val(reg=remainder, owned=True)

    def _emit_shift(self, op: AluOp, reg: Reg, amount: int) -> None:
        """Shift by any amount through the 4-bit immediate field."""
        while amount > 0:
            step = min(amount, 15)
            self.emit(Alu(op, reg, Imm(step), reg))
            amount -= step

    def _spill_live_temps(self, keep: List[Reg]) -> List[Reg]:
        """Push caller-saved temps that stay live across a call."""
        keep_numbers = {r.number for r in keep}
        spilled = [r for r in self.temps.live_regs() if r.number not in keep_numbers]
        for reg in spilled:
            self.emit(Alu(AluOp.SUB, SP, Imm(1), SP))
            self.emit(Store(Displacement(SP, 0), reg, note="store:32:word"))
        return spilled

    def _restore_spilled(self, spilled: List[Reg]) -> None:
        for reg in reversed(spilled):
            self.emit(Load(Displacement(SP, 0), reg, note="load:32:word"))
            self.emit(Alu(AluOp.ADD, SP, Imm(1), SP))

    def _gen_runtime_binary(
        self, routine: str, left: Val, right: Val, result_reg: int
    ) -> Val:
        """Call ``routine`` with args in r2/r3; result in ``result_reg``."""
        left_reg = self.val_reg(left)
        right_reg = self.val_reg(right)
        spilled = self._spill_live_temps(keep=[])
        # arguments: r2 and r3 (the spill preserved any live values)
        if right_reg.number == 2 and left_reg.number != 3:
            self.emit(Alu(AluOp.MOV, right_reg, Imm(0), Reg(3)))
            self.emit(Alu(AluOp.MOV, left_reg, Imm(0), Reg(2)))
        elif right_reg.number == 2 and left_reg.number == 3:
            # swap via xor-free three-move through r4
            self.emit(Alu(AluOp.MOV, right_reg, Imm(0), Reg(4)))
            self.emit(Alu(AluOp.MOV, left_reg, Imm(0), Reg(2)))
            self.emit(Alu(AluOp.MOV, Reg(4), Imm(0), Reg(3)))
        else:
            if left_reg.number != 2:
                self.emit(Alu(AluOp.MOV, left_reg, Imm(0), Reg(2)))
            if right_reg.number != 3:
                self.emit(Alu(AluOp.MOV, right_reg, Imm(0), Reg(3)))
        self.free_val(left)
        self.free_val(right)
        self.emit(Jump(routine, link=True))
        # park the result in r1 (never spilled) before restoring temps,
        # then copy it into a pool register
        if result_reg != RESULT_REG.number:
            self.emit(Alu(AluOp.MOV, Reg(result_reg), Imm(0), RESULT_REG))
        self._restore_spilled(spilled)
        out = self.temps.alloc()
        self.emit(Alu(AluOp.MOV, RESULT_REG, Imm(0), out))
        return Val(reg=out, owned=True)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _gen_call_expr(self, expr: ast.CallExpr) -> Val:
        if expr.name in ("ord", "chr", "abs", "odd"):
            return self._gen_builtin(expr)
        return self.gen_call(expr.name, expr.args, want_result=True)

    def _gen_builtin(self, expr: ast.CallExpr) -> Val:
        arg = self.gen_expr(expr.args[0])
        if expr.name in ("ord", "chr"):
            return arg  # representation is already the ordinal
        if expr.name == "odd":
            out = self.temps.alloc()
            self.emit(Alu(AluOp.AND, self.val_operand(arg), Imm(1), out))
            self.free_val(arg)
            return Val(reg=out, owned=True)
        # abs
        reg = self.val_reg(arg)
        out = self.temps.alloc()
        done = self.new_label("Labs")
        self.emit(Alu(AluOp.MOV, reg, Imm(0), out))
        self.emit(CompareBranch(Comparison.GE, reg, Imm(0), done))
        self.emit(Alu(AluOp.RSUB, reg, Imm(0), out))
        self.emit_label(done)
        self.free_val(arg)
        return Val(reg=out, owned=True)

    def gen_call(self, name: str, args: List[ast.Expr], want_result: bool) -> Val:
        routine = self.program.routines.get(name)
        if routine is None:
            raise CompileError(f"undefined routine {name!r}")
        spilled = self._spill_live_temps(keep=[])
        # push arguments right to left so arg0 lands deepest
        for arg, param in reversed(list(zip(args, routine.params))):
            if param.by_ref:
                reg = self._gen_reference(arg)
            else:
                value = self.gen_expr(arg)
                reg = self.val_reg(value)
            self.emit(Alu(AluOp.SUB, SP, Imm(1), SP))
            self.emit(Store(Displacement(SP, 0), reg, note="store:32:word"))
            if param.by_ref:
                self.temps.release(reg)
            else:
                self.free_val(value)
        self.emit(Jump(name, link=True))
        nargs = len(args)
        if nargs:
            if fits_imm4(nargs):
                self.emit(Alu(AluOp.ADD, SP, Imm(nargs), SP))
            else:
                temp = self.materialize_const(nargs)
                self.emit(Alu(AluOp.ADD, SP, temp, SP))
                self.temps.release(temp)
        # r1 holds the result and is never spilled; restore the pool
        # first, then copy the result into a pool register
        self._restore_spilled(spilled)
        if not want_result:
            return Val(const=0)
        out = self.temps.alloc()
        self.emit(Alu(AluOp.MOV, RESULT_REG, Imm(0), out))
        return Val(reg=out, owned=True)

    def _gen_call_indirect(self, expr: ast.CallIndirect) -> Val:
        """Call through a computed code address (MiniJava vtable dispatch).

        Same frame protocol as :meth:`gen_call` -- arguments pushed
        right to left, callee sees arg0 deepest -- but the transfer is
        a linking indirect jump through a register instead of a direct
        ``jal``.
        """
        assert expr.target is not None
        spilled = self._spill_live_temps(keep=[])
        for arg in reversed(expr.args):
            value = self.gen_expr(arg)
            reg = self.val_reg(value)
            self.emit(Alu(AluOp.SUB, SP, Imm(1), SP))
            self.emit(Store(Displacement(SP, 0), reg, note="store:32:word"))
            self.free_val(value)
        target = self.gen_expr(expr.target)
        target_reg = self.val_reg(target)
        self.emit(JumpIndirect(target_reg, link=True))
        self.free_val(target)
        nargs = len(expr.args)
        if nargs:
            if fits_imm4(nargs):
                self.emit(Alu(AluOp.ADD, SP, Imm(nargs), SP))
            else:
                temp = self.materialize_const(nargs)
                self.emit(Alu(AluOp.ADD, SP, temp, SP))
                self.temps.release(temp)
        self._restore_spilled(spilled)
        out = self.temps.alloc()
        self.emit(Alu(AluOp.MOV, RESULT_REG, Imm(0), out))
        return Val(reg=out, owned=True)

    def _gen_alloc(self, expr: ast.AllocWords) -> Val:
        """Bump-allocate ``size`` words via the ``__alloc`` runtime routine."""
        assert expr.size is not None
        self.needs_alloc = True
        size = self.gen_expr(expr.size)
        size_reg = self.val_reg(size)
        spilled = self._spill_live_temps(keep=[])
        if size_reg.number != 2:
            self.emit(Alu(AluOp.MOV, size_reg, Imm(0), Reg(2)))
        self.free_val(size)
        self.emit(Jump("__alloc", link=True))
        # block base comes back in r1, which is never spilled
        self._restore_spilled(spilled)
        out = self.temps.alloc()
        self.emit(Alu(AluOp.MOV, RESULT_REG, Imm(0), out))
        return Val(reg=out, owned=True)

    def _gen_reference(self, expr: ast.Expr) -> Reg:
        """The word address of a designator, in a fresh temp."""
        loc = self.resolve_loc(expr)
        if loc.byte_grain:
            raise CompileError("cannot pass byte-grain data by reference")
        out = self.temps.alloc()
        if loc.base is None:
            self.emit(LoadImm(loc.offset, out))
        else:
            self._emit_add_const(loc.base, loc.offset, out)
        self.free_loc(loc)
        return out

    # ------------------------------------------------------------------
    # boolean evaluation
    # ------------------------------------------------------------------

    def gen_branch(self, expr: ast.Expr, target: str, when_true: bool) -> None:
        """Branch to ``target`` iff ``expr == when_true``, else fall through.

        Conditional contexts compile to compare-and-branch directly --
        the natural no-condition-code translation (section 2.3.1) --
        with short-circuit evaluation of ``and``/``or``.
        """
        if isinstance(expr, ast.BoolLit):
            if expr.value == when_true:
                self.emit(Jump(target))
            return
        if isinstance(expr, ast.UnOp) and expr.op == "not":
            assert expr.operand is not None
            self.gen_branch(expr.operand, target, not when_true)
            return
        if isinstance(expr, ast.BinOp) and expr.op in _RELOP_TO_COMPARISON:
            assert expr.left is not None and expr.right is not None
            cond = _RELOP_TO_COMPARISON[expr.op]
            if not when_true:
                cond = NEGATED_COMPARISON[cond]
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            self.emit(
                CompareBranch(cond, self.val_operand(left), self.val_operand(right), target)
            )
            self.free_val(left)
            self.free_val(right)
            return
        if isinstance(expr, ast.BinOp) and expr.op in ("and", "or"):
            assert expr.left is not None and expr.right is not None
            # short-circuit (the paper's early-out evaluation)
            if (expr.op == "or") == when_true:
                # either side reaching `when_true` suffices
                self.gen_branch(expr.left, target, when_true)
                self.gen_branch(expr.right, target, when_true)
            else:
                skip = self.new_label("Lsc")
                self.gen_branch(expr.left, skip, not when_true)
                self.gen_branch(expr.right, target, when_true)
                self.emit_label(skip)
            return
        # general boolean value: compare against zero
        value = self.gen_expr(expr)
        cond = Comparison.NE if when_true else Comparison.EQ
        self.emit(CompareBranch(cond, self.val_operand(value), Imm(0), target))
        self.free_val(value)

    def _gen_bool_by_branching(self, expr: ast.Expr) -> Val:
        """Materialize a boolean with branches (no conditional set)."""
        out = self.temps.alloc()
        done = self.new_label("Lb")
        self.use_constant(1)
        self.emit(Alu(AluOp.MOV, Imm(1), Imm(0), out))
        self.gen_branch(expr, done, True)
        self.use_constant(0)
        self.emit(Alu(AluOp.MOV, Imm(0), Imm(0), out))
        self.emit_label(done)
        return Val(reg=out, owned=True)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _gen_stmt(self, stmt: Optional[ast.Stmt]) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Compound):
            for inner in stmt.body:
                self._gen_stmt(inner)
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self.gen_call(stmt.name, stmt.args, want_result=False)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.Repeat):
            self._gen_repeat(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Write):
            self._gen_write(stmt)
        elif isinstance(stmt, ast.Read):
            self._gen_read(stmt)
        else:
            raise CompileError(f"unhandled statement {stmt!r}")

    def _gen_assign(self, stmt: ast.Assign) -> None:
        assert stmt.target is not None and stmt.value is not None
        place = self.reg_place(stmt.target)
        value = self.gen_expr(stmt.value)
        if place is not None:
            assert place.reg is not None
            if value.is_const:
                self._emit_const_into(value.const or 0, place.reg)
            else:
                assert value.reg is not None
                self.emit(Alu(AluOp.MOV, value.reg, Imm(0), place.reg))
            self.free_val(value)
            return
        loc = self.resolve_loc(stmt.target)
        self.store_loc(loc, value)
        self.free_val(value)
        self.free_loc(loc)

    def _gen_if(self, stmt: ast.If) -> None:
        assert stmt.cond is not None
        if stmt.else_branch is None:
            done = self.new_label("Lif")
            self.gen_branch(stmt.cond, done, False)
            self._gen_stmt(stmt.then_branch)
            self.emit_label(done)
        else:
            else_label = self.new_label("Lelse")
            done = self.new_label("Lif")
            self.gen_branch(stmt.cond, else_label, False)
            self._gen_stmt(stmt.then_branch)
            self.emit(Jump(done))
            self.emit_label(else_label)
            self._gen_stmt(stmt.else_branch)
            self.emit_label(done)

    def _gen_while(self, stmt: ast.While) -> None:
        assert stmt.cond is not None
        top = self.new_label("Lwhile")
        done = self.new_label("Lwend")
        self.emit_label(top)
        self.gen_branch(stmt.cond, done, False)
        self._gen_stmt(stmt.body)
        self.emit(Jump(top))
        self.emit_label(done)

    def _gen_repeat(self, stmt: ast.Repeat) -> None:
        assert stmt.cond is not None
        top = self.new_label("Lrep")
        self.emit_label(top)
        for inner in stmt.body:
            self._gen_stmt(inner)
        self.gen_branch(stmt.cond, top, False)

    def _gen_for(self, stmt: ast.For) -> None:
        assert stmt.start is not None and stmt.stop is not None
        var_expr = ast.VarRef(stmt.line, stmt.var)
        var_expr.type = INTEGER  # type: ignore[attr-defined]
        # initialize the loop variable
        init = ast.Assign(stmt.line, var_expr, stmt.start)
        self._gen_stmt(init)
        # evaluate the limit once into a hidden slot (or keep a constant)
        stop = self.gen_expr(stmt.stop)
        stop_slot: Optional[int] = None
        stop_const: Optional[int] = None
        if stop.is_const:
            stop_const = stop.const
        else:
            stop_slot = self._alloc_hidden_slot()
            reg = self.val_reg(stop)
            self.emit(Store(Displacement(FP, stop_slot), reg, note="store:32:word"))
        self.free_val(stop)

        top = self.new_label("Lfor")
        done = self.new_label("Lfend")
        cond = Comparison.LT if stmt.downto else Comparison.GT
        self.emit_label(top)
        current = self.gen_expr(var_expr)
        if stop_const is not None:
            limit_op = self.const_operand(stop_const)
            if limit_op is None:
                limit_reg = self.materialize_const(stop_const)
                self.emit(
                    CompareBranch(cond, self.val_operand(current), limit_reg, done)
                )
                self.temps.release(limit_reg)
            else:
                self.emit(
                    CompareBranch(cond, self.val_operand(current), limit_op, done)
                )
        else:
            limit = self.temps.alloc()
            assert stop_slot is not None
            self.emit(Load(Displacement(FP, stop_slot), limit, note="load:32:word"))
            self.emit(CompareBranch(cond, self.val_operand(current), limit, done))
            self.temps.release(limit)
        self.free_val(current)
        self._gen_stmt(stmt.body)
        # increment / decrement
        step = ast.BinOp(
            stmt.line, "-" if stmt.downto else "+", var_expr, ast.IntLit(stmt.line, 1)
        )
        step.type = INTEGER  # type: ignore[attr-defined]
        self._gen_stmt(ast.Assign(stmt.line, var_expr, step))
        self.emit(Jump(top))
        self.emit_label(done)

    def _gen_write(self, stmt: ast.Write) -> None:
        for arg in stmt.args:
            if isinstance(arg, ast.StringLit):
                for ch in arg.value:
                    self.use_constant(ord(ch))
                    self._emit_const_to_r1(ord(ch))
                    self.emit(Trap(TRAP_WRITE_CHAR))
                continue
            value = self.gen_expr(arg)
            arg_type = getattr(arg, "type", INTEGER)
            if value.is_const:
                self._emit_const_to_r1(value.const or 0)
            else:
                assert value.reg is not None
                self.emit(Alu(AluOp.MOV, value.reg, Imm(0), RESULT_REG))
            self.free_val(value)
            self.emit(Trap(TRAP_WRITE_CHAR if arg_type == CHAR else TRAP_WRITE_INT))
        if stmt.newline:
            self._emit_const_to_r1(10)
            self.emit(Trap(TRAP_WRITE_CHAR))

    def _emit_const_to_r1(self, value: int) -> None:
        self._emit_const_into(value, RESULT_REG)

    def _gen_read(self, stmt: ast.Read) -> None:
        assert stmt.target is not None
        self.emit(Trap(TRAP_READ_INT))
        place = self.reg_place(stmt.target)
        if place is not None:
            assert place.reg is not None
            self.emit(Alu(AluOp.MOV, RESULT_REG, Imm(0), place.reg))
            return
        value = Val(reg=RESULT_REG, owned=False)
        loc = self.resolve_loc(stmt.target)
        self.store_loc(loc, value)
        self.free_loc(loc)


def generate(program: CheckedProgram, options: Optional[CompileOptions] = None) -> CompiledUnit:
    """Generate the MIPS piece stream for a checked program."""
    return CodeGenerator(program, options).generate()
