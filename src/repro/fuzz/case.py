"""Fuzz cases: deterministic (seed, index) -> program mappings.

A :class:`FuzzCase` owns both the rendered source text and the unit
list it was rendered from, so the minimizer can re-render any unit
prefix without re-deriving generator state.  Case identity is purely
``(seed, index, mode)`` -- the same triple produces byte-identical
source on every host, which is what makes farm-sharded fuzz batches
digest-stable at any parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from . import astgen, mjgen, wordgen

MODE_AST = "ast"
MODE_WORDS = "words"
MODE_MINIJAVA = "minijava"
MODE_BOTH = "both"
MODES = (MODE_AST, MODE_WORDS, MODE_MINIJAVA, MODE_BOTH)


@dataclass
class FuzzCase:
    """One generated program plus everything needed to shrink it."""

    seed: int
    index: int
    mode: str          # MODE_AST, MODE_WORDS or MODE_MINIJAVA (never MODE_BOTH)
    source: str
    units: List        # shrinkable units (statements or WordUnits)
    render: Callable[[Sequence], str]  # units prefix -> complete source

    @property
    def name(self) -> str:
        return f"fuzz-{self.mode}-s{self.seed}-c{self.index}"

    @property
    def replay_command(self) -> str:
        return (
            f"mips-fuzz run --seed {self.seed} --start {self.index} "
            f"--cases 1 --mode {self.mode}"
        )


def case_mode(mode: str, index: int) -> str:
    """The concrete mode of case ``index`` under a batch mode.

    ``both`` interleaves deterministically: even indices are AST cases,
    odd indices are instruction-stream cases.  The mapping depends only
    on the global case index, never on batch boundaries, so any job
    split sees the same cases.
    """
    if mode == MODE_BOTH:
        return MODE_AST if index % 2 == 0 else MODE_WORDS
    if mode not in (MODE_AST, MODE_WORDS, MODE_MINIJAVA):
        raise ValueError(f"unknown fuzz mode {mode!r} (have {', '.join(MODES)})")
    return mode


def make_case(seed: int, index: int, mode: str) -> FuzzCase:
    """Generate case ``(seed, index)`` under ``mode`` (``both`` allowed)."""
    concrete = case_mode(mode, index)
    if concrete == MODE_AST:
        routines, units = astgen.generate_ast_program(seed, index)

        def render(prefix: Sequence) -> str:
            return astgen.render_ast_case(index, routines, prefix)

        return FuzzCase(seed, index, concrete, render(units), list(units), render)
    if concrete == MODE_MINIJAVA:
        fixed, mj_units = mjgen.generate_minijava_program(seed, index)

        def render_mj(prefix: Sequence) -> str:
            return mjgen.render_minijava_case(index, fixed, prefix)

        return FuzzCase(
            seed, index, concrete, render_mj(mj_units), list(mj_units), render_mj
        )
    units = wordgen.generate_word_units(seed, index)
    return FuzzCase(
        seed,
        index,
        concrete,
        wordgen.render_word_case(units),
        list(units),
        wordgen.render_word_case,
    )
