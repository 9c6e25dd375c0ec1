"""Semantic analysis: name resolution and type checking.

Produces a :class:`CheckedProgram`: the AST annotated in place with
resolved :mod:`types <repro.lang.types>` (every expression node gains a
``.type`` attribute) plus symbol tables the compiler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import ast
from .types import (
    BOOLEAN,
    CHAR,
    INTEGER,
    ArrayType,
    BooleanType,
    RecordType,
    Type,
    compatible,
)


class SemanticError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass
class VarSymbol:
    """A variable, parameter, or function-result slot."""

    name: str
    type: Type
    kind: str  # 'global' | 'local' | 'param' | 'result'
    by_ref: bool = False
    routine: Optional[str] = None  # owning routine, None for globals


@dataclass
class RoutineSymbol:
    name: str
    params: List[VarSymbol]
    result: Optional[Type]
    locals: List[VarSymbol] = field(default_factory=list)
    ast_node: Optional[ast.Routine] = None

    @property
    def is_function(self) -> bool:
        return self.result is not None


@dataclass
class CheckedProgram:
    """The semantic checker's output."""

    ast: ast.ProgramAst
    globals: Dict[str, VarSymbol]
    routines: Dict[str, RoutineSymbol]
    consts: Dict[str, int]

    @property
    def name(self) -> str:
        return self.ast.name


_BUILTIN_FUNCTIONS = ("ord", "chr", "abs", "odd")


class Checker:
    def __init__(self, program: ast.ProgramAst):
        self.program = program
        self.types: Dict[str, Type] = {}
        self.consts: Dict[str, int] = {}
        self.globals: Dict[str, VarSymbol] = {}
        self.routines: Dict[str, RoutineSymbol] = {}
        #: routine scope during body checking (None = main body)
        self._scope: Optional[RoutineSymbol] = None
        self._scope_vars: Dict[str, VarSymbol] = {}
        self._scope_consts: Dict[str, int] = {}

    # -- declarations ------------------------------------------------------

    def check(self) -> CheckedProgram:
        for const in self.program.consts:
            if const.name in self.consts:
                raise SemanticError(f"constant {const.name!r} redefined", const.line)
            self.consts[const.name] = const.value
        for decl in self.program.types:
            if decl.name in self.types:
                raise SemanticError(f"type {decl.name!r} redefined", decl.line)
            self.types[decl.name] = self.resolve_type(decl.type_expr, decl.line)
        for var in self.program.global_vars:
            if var.name in self.globals:
                raise SemanticError(f"variable {var.name!r} redefined", var.line)
            self.globals[var.name] = VarSymbol(
                var.name, self.resolve_type(var.type_expr, var.line), "global"
            )
        for routine in self.program.routines:
            self.declare_routine(routine)
        for routine in self.program.routines:
            self.check_routine(routine)
        self._scope = None
        self._scope_vars = {}
        self._scope_consts = {}
        self.check_stmt(self.program.body)
        return CheckedProgram(self.program, self.globals, self.routines, self.consts)

    def resolve_type(self, expr: ast.TypeExpr, line: int = 0) -> Type:
        if isinstance(expr, ast.NamedType):
            if expr.name == "integer":
                return INTEGER
            if expr.name == "char":
                return CHAR
            if expr.name == "boolean":
                return BOOLEAN
            if expr.name in self.types:
                return self.types[expr.name]
            raise SemanticError(f"unknown type {expr.name!r}", line)
        if isinstance(expr, ast.ArrayTypeExpr):
            return ArrayType(
                expr.low, expr.high, self.resolve_type(expr.element, line), expr.packed
            )
        if isinstance(expr, ast.RecordTypeExpr):
            fields = tuple(
                (name, self.resolve_type(ftype, line)) for name, ftype in expr.fields
            )
            names = [n for n, _ in fields]
            if len(names) != len(set(names)):
                raise SemanticError("duplicate record field", line)
            return RecordType(fields, expr.packed)
        raise SemanticError(f"bad type expression {expr!r}", line)

    def declare_routine(self, routine: ast.Routine) -> None:
        if routine.name in self.routines or routine.name in _BUILTIN_FUNCTIONS:
            raise SemanticError(f"routine {routine.name!r} redefined", routine.line)
        params = [
            VarSymbol(
                p.name,
                self.resolve_type(p.type_expr, p.line),
                "param",
                by_ref=p.by_ref,
                routine=routine.name,
            )
            for p in routine.params
        ]
        for p in params:
            if p.by_ref and not isinstance(p.type, (ArrayType, RecordType)):
                pass  # scalar var parameters are fine too
        result = (
            self.resolve_type(routine.result_type, routine.line)
            if routine.result_type is not None
            else None
        )
        if result is not None and not result.is_scalar:
            raise SemanticError("functions must return scalars", routine.line)
        self.routines[routine.name] = RoutineSymbol(
            routine.name, params, result, ast_node=routine
        )

    def check_routine(self, routine: ast.Routine) -> None:
        symbol = self.routines[routine.name]
        self._scope = symbol
        self._scope_consts = {c.name: c.value for c in routine.consts}
        self._scope_vars = {p.name: p for p in symbol.params}
        for var in routine.local_vars:
            if var.name in self._scope_vars:
                raise SemanticError(f"variable {var.name!r} redefined", var.line)
            local = VarSymbol(
                var.name,
                self.resolve_type(var.type_expr, var.line),
                "local",
                routine=routine.name,
            )
            self._scope_vars[var.name] = local
            symbol.locals.append(local)
        if symbol.is_function:
            # the function name acts as the result variable
            assert symbol.result is not None
            self._scope_vars.setdefault(
                routine.name,
                VarSymbol(routine.name, symbol.result, "result", routine=routine.name),
            )
        self.check_stmt(routine.body)

    # -- symbol lookup ------------------------------------------------------------

    def lookup_var(self, name: str, line: int) -> VarSymbol:
        if name in self._scope_vars:
            return self._scope_vars[name]
        if name in self.globals:
            return self.globals[name]
        raise SemanticError(f"undefined variable {name!r}", line)

    def lookup_const(self, name: str) -> Optional[int]:
        if name in self._scope_consts:
            return self._scope_consts[name]
        return self.consts.get(name)

    # -- statements -------------------------------------------------------------------

    def check_stmt(self, stmt: Optional[ast.Stmt]) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Compound):
            for inner in stmt.body:
                self.check_stmt(inner)
        elif isinstance(stmt, ast.Assign):
            assert stmt.target is not None and stmt.value is not None
            target_type = self.check_expr(stmt.target, lvalue=True)
            value_type = self.check_expr(stmt.value)
            if not compatible(target_type, value_type):
                raise SemanticError(
                    f"cannot assign {value_type!r} to {target_type!r}", stmt.line
                )
        elif isinstance(stmt, ast.CallStmt):
            self.check_call(stmt.name, stmt.args, stmt.line, statement=True)
        elif isinstance(stmt, ast.If):
            self.require_boolean(stmt.cond, stmt.line)
            self.check_stmt(stmt.then_branch)
            self.check_stmt(stmt.else_branch)
        elif isinstance(stmt, ast.While):
            self.require_boolean(stmt.cond, stmt.line)
            self.check_stmt(stmt.body)
        elif isinstance(stmt, ast.Repeat):
            for inner in stmt.body:
                self.check_stmt(inner)
            self.require_boolean(stmt.cond, stmt.line)
        elif isinstance(stmt, ast.For):
            var = self.lookup_var(stmt.var, stmt.line)
            if var.type != INTEGER:
                raise SemanticError("for-loop variable must be integer", stmt.line)
            if var.by_ref:
                raise SemanticError("for-loop variable cannot be a var parameter", stmt.line)
            assert stmt.start is not None and stmt.stop is not None
            if self.check_expr(stmt.start) != INTEGER:
                raise SemanticError("for-loop bounds must be integer", stmt.line)
            if self.check_expr(stmt.stop) != INTEGER:
                raise SemanticError("for-loop bounds must be integer", stmt.line)
            self.check_stmt(stmt.body)
        elif isinstance(stmt, ast.Write):
            for arg in stmt.args:
                arg_type = self.check_expr(arg)
                if isinstance(arg, ast.StringLit):
                    continue
                if not arg_type.is_scalar:
                    raise SemanticError("write needs scalars or strings", stmt.line)
        elif isinstance(stmt, ast.Read):
            assert stmt.target is not None
            target_type = self.check_expr(stmt.target, lvalue=True)
            if target_type != INTEGER:
                raise SemanticError("read target must be integer", stmt.line)
        else:
            raise SemanticError(f"unhandled statement {stmt!r}", stmt.line)

    def require_boolean(self, expr: Optional[ast.Expr], line: int) -> None:
        assert expr is not None
        if self.check_expr(expr) != BOOLEAN:
            raise SemanticError("condition must be boolean", line)

    # -- expressions ---------------------------------------------------------------------

    def check_expr(self, expr: ast.Expr, lvalue: bool = False) -> Type:
        expr_type = self._check_expr(expr, lvalue)
        expr.type = expr_type  # type: ignore[attr-defined]
        return expr_type

    def _check_expr(self, expr: ast.Expr, lvalue: bool) -> Type:
        if isinstance(expr, ast.IntLit):
            return INTEGER
        if isinstance(expr, ast.CharLit):
            return CHAR
        if isinstance(expr, ast.BoolLit):
            return BOOLEAN
        if isinstance(expr, ast.StringLit):
            return ArrayType(0, max(len(expr.value) - 1, 0), CHAR, packed=True)
        if isinstance(expr, ast.VarRef):
            const_value = self.lookup_const(expr.name)
            if const_value is not None and not lvalue:
                expr.const_value = const_value  # type: ignore[attr-defined]
                return INTEGER
            if (
                not lvalue
                and expr.name not in self._scope_vars
                and expr.name not in self.globals
                and expr.name in self.routines
                and self.routines[expr.name].is_function
                and not self.routines[expr.name].params
            ):
                # Pascal: a parameterless function call needs no parens
                expr.implicit_call = True  # type: ignore[attr-defined]
                result = self.routines[expr.name].result
                assert result is not None
                return result
            return self.lookup_var(expr.name, expr.line).type
        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            base_type = self.check_expr(expr.base, lvalue)
            if not isinstance(base_type, ArrayType):
                raise SemanticError("indexing a non-array", expr.line)
            if self.check_expr(expr.index) != INTEGER:
                raise SemanticError("array index must be integer", expr.line)
            return base_type.element
        if isinstance(expr, ast.FieldAccess):
            assert expr.base is not None
            base_type = self.check_expr(expr.base, lvalue)
            if not isinstance(base_type, RecordType):
                raise SemanticError("field access on a non-record", expr.line)
            ftype = base_type.field_type(expr.field_name)
            if ftype is None:
                raise SemanticError(f"no field {expr.field_name!r}", expr.line)
            return ftype
        if isinstance(expr, ast.UnOp):
            assert expr.operand is not None
            operand = self.check_expr(expr.operand)
            if expr.op == "-":
                if operand != INTEGER:
                    raise SemanticError("unary minus needs an integer", expr.line)
                return INTEGER
            if expr.op == "not":
                if operand != BOOLEAN:
                    raise SemanticError("'not' needs a boolean", expr.line)
                return BOOLEAN
            raise SemanticError(f"unknown unary operator {expr.op!r}", expr.line)
        if isinstance(expr, ast.BinOp):
            assert expr.left is not None and expr.right is not None
            left = self.check_expr(expr.left)
            right = self.check_expr(expr.right)
            if expr.op in ("+", "-", "*", "div", "mod"):
                if left != INTEGER or right != INTEGER:
                    raise SemanticError(f"{expr.op!r} needs integers", expr.line)
                return INTEGER
            if expr.op in ("and", "or"):
                if left != BOOLEAN or right != BOOLEAN:
                    raise SemanticError(f"{expr.op!r} needs booleans", expr.line)
                return BOOLEAN
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                if not compatible(left, right) or not left.is_scalar:
                    raise SemanticError(
                        f"cannot compare {left!r} with {right!r}", expr.line
                    )
                return BOOLEAN
            raise SemanticError(f"unknown operator {expr.op!r}", expr.line)
        if isinstance(expr, ast.CallExpr):
            return self.check_call(expr.name, expr.args, expr.line, statement=False)
        # lowering nodes (produced by repro.mjlang, never by the parser)
        if isinstance(expr, ast.MemWord):
            assert expr.base is not None
            if self.check_expr(expr.base) != INTEGER:
                raise SemanticError("memory word base must be integer", expr.line)
            return self._scalar_for(expr.value_type, expr.line)
        if isinstance(expr, ast.LabelAddr):
            return INTEGER
        if isinstance(expr, ast.GlobalAddr):
            if expr.name not in self.globals:
                raise SemanticError(f"no global {expr.name!r}", expr.line)
            return INTEGER
        if isinstance(expr, ast.CallIndirect):
            assert expr.target is not None
            if self.check_expr(expr.target) != INTEGER:
                raise SemanticError("indirect-call target must be integer", expr.line)
            for arg in expr.args:
                if not self.check_expr(arg).is_scalar:
                    raise SemanticError(
                        "indirect-call arguments must be scalars", expr.line
                    )
            return self._scalar_for(expr.value_type, expr.line)
        if isinstance(expr, ast.AllocWords):
            assert expr.size is not None
            if self.check_expr(expr.size) != INTEGER:
                raise SemanticError("allocation size must be integer", expr.line)
            return INTEGER
        raise SemanticError(f"unhandled expression {expr!r}", expr.line)

    @staticmethod
    def _scalar_for(name: str, line: int) -> Type:
        if name == "integer":
            return INTEGER
        if name == "boolean":
            return BOOLEAN
        raise SemanticError(f"bad lowering value type {name!r}", line)

    def check_call(
        self, name: str, args: List[ast.Expr], line: int, statement: bool
    ) -> Type:
        if name in _BUILTIN_FUNCTIONS:
            if statement:
                raise SemanticError(f"{name} is a function", line)
            if len(args) != 1:
                raise SemanticError(f"{name} takes one argument", line)
            arg_type = self.check_expr(args[0])
            if name == "ord":
                if not arg_type.is_scalar:
                    raise SemanticError("ord needs a scalar", line)
                return INTEGER
            if name == "chr":
                if arg_type != INTEGER:
                    raise SemanticError("chr needs an integer", line)
                return CHAR
            if name == "abs":
                if arg_type != INTEGER:
                    raise SemanticError("abs needs an integer", line)
                return INTEGER
            # odd
            if arg_type != INTEGER:
                raise SemanticError("odd needs an integer", line)
            return BOOLEAN
        if name not in self.routines:
            raise SemanticError(f"undefined routine {name!r}", line)
        routine = self.routines[name]
        if statement and routine.is_function:
            pass  # calling a function as a statement discards the result
        if not statement and not routine.is_function:
            raise SemanticError(f"{name!r} is a procedure, not a function", line)
        if len(args) != len(routine.params):
            raise SemanticError(
                f"{name!r} expects {len(routine.params)} arguments, got {len(args)}",
                line,
            )
        for arg, param in zip(args, routine.params):
            arg_type = self.check_expr(arg, lvalue=param.by_ref)
            if not compatible(arg_type, param.type):
                raise SemanticError(
                    f"argument {param.name!r}: expected {param.type!r}, got {arg_type!r}",
                    line,
                )
            if param.by_ref and not isinstance(
                arg, (ast.VarRef, ast.Index, ast.FieldAccess)
            ):
                raise SemanticError(
                    f"var parameter {param.name!r} needs a variable", line
                )
            if param.by_ref and isinstance(arg, ast.VarRef):
                if self.lookup_const(arg.name) is not None and arg.name not in self._scope_vars and arg.name not in self.globals:
                    raise SemanticError(
                        f"var parameter {param.name!r} cannot bind a constant", line
                    )
        return routine.result if routine.result is not None else INTEGER


def check_program(program: ast.ProgramAst) -> CheckedProgram:
    """Type-check a parsed program."""
    return Checker(program).check()


def analyze(source: str) -> CheckedProgram:
    """Parse and type-check mini-Pascal source."""
    from .parser import parse_program

    return check_program(parse_program(source))
