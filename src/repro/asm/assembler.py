"""The two-pass assembler.

Pass 1 walks the statements maintaining a location counter, recording
label addresses and ``.equ`` values.  Pass 2 resolves symbolic operands
(branch targets, ``lim symbol``, symbolic displacements/absolutes) and
encodes each word into the program image.

The assembler performs **no** reordering, packing, or delay-slot
management -- those belong to the reorganizer (:mod:`repro.reorg`),
which the paper runs as a separate postpass over both compiler output
and hand-written assembly.  Writing via :func:`assemble_with_reorg`
routes the piece stream through that postpass first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..isa.pieces import (
    Absolute,
    CompareBranch,
    Displacement,
    Jump,
    Load,
    LoadImm,
    LoadLabel,
    Piece,
    Store,
)
from ..isa.words import InstructionWord
from .errors import AsmError, DuplicateSymbol, UndefinedSymbol
from .parser import SourceStatement, _SymbolicLim, _SymbolicMem, parse
from .program import Program
from .statements import (
    Ascii,
    Equ,
    Label,
    Org,
    PackedStmt,
    PieceStmt,
    Space,
    WordData,
)


@dataclass
class _Placement:
    """Where a statement's words will land (filled by pass 1)."""

    stmt: SourceStatement
    address: int


def _statement_size(stmt: SourceStatement) -> int:
    body = stmt.stmt
    if isinstance(body, (PieceStmt, PackedStmt)):
        return 1
    if isinstance(body, WordData):
        return len(body.values)
    if isinstance(body, Space):
        return body.count
    if isinstance(body, Ascii):
        return body.word_count
    return 0


def assemble(source: str, entry_symbol: Optional[str] = "start") -> Program:
    """Assemble source text into a :class:`Program`.

    ``entry_symbol`` names the entry point; when absent (or not defined)
    the lowest instruction address is used.
    """
    statements = parse(source)
    symbols: Dict[str, int] = {}
    placements: List[_Placement] = []

    # pass 1: addresses and symbols
    location = 0
    for stmt in statements:
        body = stmt.stmt
        if isinstance(body, Org):
            location = body.address
            continue
        if isinstance(body, Equ):
            if body.name in symbols:
                raise DuplicateSymbol(f"symbol {body.name!r} redefined", stmt.line, stmt.source)
            symbols[body.name] = body.value
            continue
        if isinstance(body, Label):
            if body.name in symbols:
                raise DuplicateSymbol(f"symbol {body.name!r} redefined", stmt.line, stmt.source)
            symbols[body.name] = location
            continue
        placements.append(_Placement(stmt, location))
        location += _statement_size(stmt)

    # pass 2: resolve and encode
    program = Program(symbols=dict(symbols))
    resolver = _Resolver(symbols)
    for placement in placements:
        body = placement.stmt.stmt
        addr = placement.address
        try:
            if isinstance(body, PieceStmt):
                piece = resolver.resolve(body.piece)
                program.place_word(addr, InstructionWord.single(piece))
            elif isinstance(body, PackedStmt):
                mem = resolver.resolve(body.mem)
                alu = resolver.resolve(body.alu)
                program.place_word(addr, InstructionWord.packed(mem, alu))
            elif isinstance(body, WordData):
                for i, value in enumerate(body.values):
                    program.place_data(addr + i, resolver.value(value))
            elif isinstance(body, Space):
                for i in range(body.count):
                    program.place_data(addr + i, 0)
            elif isinstance(body, Ascii):
                for i, value in enumerate(body.words()):
                    program.place_data(addr + i, value)
        except AsmError as exc:
            if exc.line is not None:
                raise
            # a resolver error knows the symbol, the statement its line
            raise type(exc)(exc.message, placement.stmt.line, placement.stmt.source) from exc
        except (KeyError, ValueError) as exc:
            raise AsmError(str(exc), placement.stmt.line, placement.stmt.source) from exc

    if entry_symbol and entry_symbol in symbols:
        program.entry = symbols[entry_symbol]
    elif program.instructions:
        program.entry = min(program.instructions)
    return program


class _Resolver:
    """Replaces symbolic references in parsed pieces with addresses."""

    def __init__(self, symbols: Dict[str, int]):
        self.symbols = symbols

    def value(self, ref: Union[int, str]) -> int:
        if isinstance(ref, int):
            return ref
        if ref not in self.symbols:
            raise UndefinedSymbol(f"undefined symbol {ref!r}")
        return self.symbols[ref]

    def resolve(self, piece: Piece) -> Piece:
        if isinstance(piece, CompareBranch) and isinstance(piece.target, str):
            return CompareBranch(piece.cond, piece.s1, piece.s2, self.value(piece.target))
        if isinstance(piece, Jump) and isinstance(piece.target, str):
            return Jump(self.value(piece.target), piece.link)
        if isinstance(piece, _SymbolicLim):
            return LoadImm(self.value(piece.symbol), piece.dst)
        if isinstance(piece, _SymbolicMem):
            form = piece.address_form
            if form[0] == "abs":
                address = Absolute(self.value(form[1]))
            else:  # ("disp", symbol, base)
                address = Displacement(form[2], self.value(form[1]))
            if piece.is_store_op:
                return Store(address, piece.register)
            return Load(address, piece.register)
        return piece


def assemble_pieces(source: str) -> List[Tuple[Optional[str], Piece]]:
    """Parse source into a labeled piece stream for the reorganizer.

    Returns ``(label, piece)`` pairs where ``label`` marks the first
    piece after each label definition.  Directives other than labels are
    rejected -- the reorganizer consumes pure instruction streams.
    ``lim <label>`` becomes a :class:`LoadLabel`, which the reorganizer
    resolves once it has placed the labels; a load or store whose
    address names a symbol is rejected, since no piece carries one.
    """
    pending_label: Optional[str] = None
    out: List[Tuple[Optional[str], Piece]] = []
    for stmt in parse(source):
        body = stmt.stmt
        if isinstance(body, Label):
            if pending_label is not None:
                raise AsmError(
                    f"consecutive labels {pending_label!r}/{body.name!r} not supported here",
                    stmt.line,
                    stmt.source,
                )
            pending_label = body.name
        elif isinstance(body, PieceStmt):
            piece = body.piece
            if isinstance(piece, _SymbolicLim):
                piece = LoadLabel(piece.symbol, piece.dst)
            elif isinstance(piece, _SymbolicMem):
                raise AsmError(
                    f"a symbolic load/store address is not allowed in a reorganizer "
                    f"stream (take the address with lim), got {piece!r}",
                    stmt.line,
                    stmt.source,
                )
            out.append((pending_label, piece))
            pending_label = None
        else:
            raise AsmError(
                f"only labels and pieces are allowed in a reorganizer stream, got {body!r}",
                stmt.line,
                stmt.source,
            )
    if pending_label is not None:
        raise AsmError(f"label {pending_label!r} at end of stream")
    return out
