"""Decoder robustness: arbitrary 32-bit patterns never crash the decoder.

Every pattern either decodes to a valid instruction word (which must
re-encode to an equivalent word) or raises ``EncodingError`` -- no
other exception type, ever.  This is what the CPU's illegal-instruction
path relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.encoding import EncodingError, decode, encode
from repro.sim import IllegalInstruction, Machine
from repro.asm import assemble


@settings(max_examples=400, deadline=None)
@given(st.integers(0, (1 << 32) - 1))
def test_decode_is_total(bits):
    try:
        word = decode(bits, addr=100)
    except (EncodingError, ValueError):
        return  # rejected cleanly
    # whatever decoded must re-encode and decode to the same thing
    recoded = encode(word, addr=100)
    assert decode(recoded, addr=100) == word


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 32) - 1))
def test_decode_stability(bits):
    """decode(encode(decode(x))) is a fixpoint when x decodes at all."""
    try:
        first = decode(bits, addr=7)
    except (EncodingError, ValueError):
        return
    second = decode(encode(first, addr=7), addr=7)
    assert second == first


def test_cpu_raises_illegal_on_undecodable_word():
    machine = Machine(assemble("start: nop"))
    # plant an undecodable pattern (unknown special subop) and run into it
    machine.memory.poke(1, 0b000_11111 << 24)
    machine.cpu.pc = 1
    with pytest.raises(IllegalInstruction):
        machine.cpu.step()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 30) - 1))
def test_generated_word_streams_execute_on_every_engine(seed):
    """Arbitrary assembled word sequences *execute*, not just decode:
    the seeded stream generator exercises branch/delay-slot corners,
    immediate boundaries, packed pairs, and call chains, and both
    engines must agree on the complete outcome with no exception
    outside the machine contract (fault/timeout)."""
    from repro.fuzz.oracle import check_word_source
    from repro.fuzz.wordgen import generate_word_units, render_word_case

    source = render_word_case(generate_word_units(seed, 0))
    result = check_word_source(source, max_steps=50_000)
    assert not result.failed, result.divergences


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=24),
    st.integers(0, (1 << 16) - 1),
)
def test_random_planted_words_agree_across_engines(words, salt):
    """Raw 32-bit patterns planted in memory run identically on the
    reference stepper and the fast path: same contract outcome (clean
    stop, fault type, or step-budget timeout), same final state
    fingerprint, same output."""
    from repro.sim import MachineFault, state_fingerprint

    outcomes = []
    for fast in (False, True):
        machine = Machine(assemble("start: nop"))
        for offset, bits in enumerate(words):
            machine.memory.poke(1 + offset, bits ^ salt)
        outcome = "ok"
        try:
            machine.run(len(words) + 40, fast=fast)
        except TimeoutError:
            outcome = "timeout"
        except MachineFault as exc:
            outcome = type(exc).__name__
        outcomes.append(
            (outcome, state_fingerprint(machine.cpu), list(machine.output))
        )
    assert outcomes[0] == outcomes[1]


def test_executing_data_as_code_is_defined():
    """Zeroed memory decodes as no-ops: running off the end of a program
    is a silent nop sled until something faults -- deterministic, not a
    Python crash."""
    machine = Machine(assemble("start: nop"))
    machine.cpu.pc = 50
    for _ in range(10):
        machine.cpu.step()
    assert machine.cpu.pc == 60
    assert machine.stats.noops == 10
