"""Shared fixtures: compiled programs are expensive, so cache them."""

from __future__ import annotations

import dataclasses

import pytest

from repro.compiler import CompileOptions, compile_source
from repro.isa.operations import AluOp
from repro.isa.pieces import ReadSpecial
from repro.isa.registers import Reg, SpecialReg
from repro.sim import HazardMode, Machine


@pytest.fixture(scope="session")
def compile_cache():
    """Session-wide (source, options-key) -> CompiledProgram cache."""
    cache = {}

    def compile_cached(source, options=None, opt_level=None):
        from repro.reorg import OptLevel

        level = opt_level or OptLevel.BRANCH_DELAY
        key = (source, repr(options), level)
        if key not in cache:
            cache[key] = compile_source(source, options, level)
        return cache[key]

    return compile_cached


def run_program(compiled, inputs=None, hazard_mode=HazardMode.CHECKED, max_steps=30_000_000):
    """Run a compiled program under the checking simulator."""
    machine = Machine(compiled.program, hazard_mode=hazard_mode, inputs=inputs)
    machine.run(max_steps)
    return machine


@pytest.fixture
def run():
    return run_program


def _as_mask(registers):
    """A set of registers as a register-set mask, by the documented
    layout: rn is bit n, and the k-th special register in declaration
    order is bit 16 + k."""
    mask = 0
    for register in registers:
        if isinstance(register, Reg):
            mask |= 1 << register.number
        else:
            mask |= 1 << (16 + list(SpecialReg).index(register))
    return mask


def registers_from_fields(piece):
    """(reads, writes) of a piece as register-set masks, read off its
    fields instead of asked of the piece.  Every ``Reg`` field and every
    address register is read, except ``dst``, which is written, and the
    ``s2`` that ``mov`` and ``not`` ignore; ``ic`` also reads its old
    ``dst`` and ``lo``; a link writes r15; ``rdspec`` reads and ``wrspec``
    writes its special register.  Immediates and absolute addresses name
    no register."""
    op = getattr(piece, "op", None)
    reads, writes = set(), set()
    for field in dataclasses.fields(piece):
        value = getattr(piece, field.name)
        if field.name == "dst":
            writes.add(value)
        elif field.name == "sreg":
            (reads if isinstance(piece, ReadSpecial) else writes).add(value)
        elif field.name == "addr":
            reads.update(
                getattr(value, f.name)
                for f in dataclasses.fields(value)
                if isinstance(getattr(value, f.name), Reg)
            )
        elif isinstance(value, Reg) and not (
            field.name == "s2" and op in (AluOp.MOV, AluOp.NOT)
        ):
            reads.add(value)
    if op is AluOp.IC:
        reads |= {piece.dst, SpecialReg.LO}
    if getattr(piece, "link", False):
        writes.add(Reg(15))
    return _as_mask(reads), _as_mask(writes)


@pytest.fixture
def register_spec():
    """The specification of ``Piece.reads``/``writes``: see
    :func:`registers_from_fields`."""
    return registers_from_fields
