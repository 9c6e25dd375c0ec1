"""The compiler driver: source text to runnable program.

Pipeline (the paper's, section 4.2.1): front end -> code generator
(piece stream) -> **postpass reorganizer** (scheduling, packing,
branch-delay optimization, no-op insertion) -> assembled image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..asm.program import Program
from ..lang.semantic import CheckedProgram, analyze
from ..reorg.blocks import LabeledPiece
from ..reorg.reorganizer import OptLevel, ReorgResult, reorganize
from .codegen_mips import CompileOptions, CompiledUnit, generate
from .runtime import runtime_stream


@dataclass
class CompiledProgram:
    """Everything the toolchain produced for one source program."""

    checked: CheckedProgram
    unit: CompiledUnit
    reorg: ReorgResult
    program: Program

    @property
    def static_count(self) -> int:
        return self.reorg.static_count


def compile_checked(
    checked: CheckedProgram,
    options: Optional[CompileOptions] = None,
    opt_level: OptLevel = OptLevel.BRANCH_DELAY,
) -> CompiledProgram:
    """Compile an already-analyzed program."""
    unit = generate(checked, options)
    stream: List[LabeledPiece] = list(unit.stream)
    stream.extend(runtime_stream(unit.needs_mul, unit.needs_div, unit.needs_alloc))
    result = reorganize(stream, opt_level)
    program = result.to_program(entry_symbol="start")
    return CompiledProgram(checked, unit, result, program)


def compile_source(
    source: str,
    options: Optional[CompileOptions] = None,
    opt_level: OptLevel = OptLevel.BRANCH_DELAY,
) -> CompiledProgram:
    """Compile mini-Pascal source text down to a program image."""
    return compile_checked(analyze(source), options, opt_level)


def piece_stream(
    source: str, options: Optional[CompileOptions] = None, with_runtime: bool = True
) -> List[LabeledPiece]:
    """The raw code-generator output for a source program.

    This is the reorganizer's input -- what Table 11 feeds through the
    optimization levels.
    """
    unit = generate(analyze(source), options)
    stream = list(unit.stream)
    if with_runtime:
        stream.extend(runtime_stream(unit.needs_mul, unit.needs_div, unit.needs_alloc))
    return stream
