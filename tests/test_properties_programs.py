"""Whole-program property test: random mini-Pascal programs versus a
Python interpretation of the same statements.

Statements cover assignment, arithmetic, conditionals, and bounded for
loops over a fixed set of integer globals; every generated program is
compiled at full optimization and run under the CHECKED simulator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompileOptions, compile_source
from repro.isa.bits import s32, u32
from repro.sim import HazardMode, Machine

VARS = ("va", "vb", "vc", "vd")


def wrap(value: int) -> int:
    return s32(u32(value))


# -- expressions (reused shape from the expression-level test) --------------


def expr_strategy(depth: int):
    leaf = st.one_of(
        st.integers(0, 99).map(lambda v: (str(v), lambda env, v=v: v)),
        st.sampled_from(VARS).map(lambda n: (n, lambda env, n=n: env[n])),
    )
    if depth == 0:
        return leaf

    def combine(children):
        op, (ls, lf), (rs, rf) = children
        if op == "+":
            return (f"({ls} + {rs})", lambda env: wrap(lf(env) + rf(env)))
        if op == "-":
            return (f"({ls} - {rs})", lambda env: wrap(lf(env) - rf(env)))
        return (f"({ls} * {rs})", lambda env: wrap(lf(env) * rf(env)))

    sub = expr_strategy(depth - 1)
    return st.one_of(
        leaf, st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(combine)
    )


def cond_strategy(depth: int):
    relop = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    ops = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    return st.tuples(relop, expr_strategy(depth), expr_strategy(depth)).map(
        lambda t: (
            f"({t[1][0]} {t[0]} {t[2][0]})",
            lambda env, t=t: ops[t[0]](t[1][1](env), t[2][1](env)),
        )
    )


# -- statements ---------------------------------------------------------------


def stmt_strategy(depth: int):
    assign = st.tuples(st.sampled_from(VARS), expr_strategy(2)).map(
        lambda t: (
            f"{t[0]} := {t[1][0]};",
            lambda env, t=t: env.__setitem__(t[0], t[1][1](env)),
        )
    )
    if depth == 0:
        return assign

    sub = st.lists(stmt_strategy(depth - 1), min_size=1, max_size=3)

    def make_if(children):
        (cs, cf), then_stmts, else_stmts = children

        def run(env):
            for _s, f in then_stmts if cf(env) else else_stmts:
                f(env)

        then_text = "\n".join(s for s, _f in then_stmts)
        else_text = "\n".join(s for s, _f in else_stmts)
        text = (
            f"if {cs} then begin\n{then_text}\nend else begin\n{else_text}\nend;"
        )
        return (text, run)

    def make_for(children):
        # each nesting depth owns its loop variable: Pascal forbids
        # assigning a for-variable inside its own loop, and nested
        # loops sharing one variable would not terminate
        limit, body = children
        var = f"vi{depth}"

        def run(env):
            for i in range(limit + 1):
                env[var] = i
                for _s, f in body:
                    f(env)
            env[var] = limit + 1

        body_text = "\n".join(s for s, _f in body)
        text = f"for {var} := 0 to {limit} do begin\n{body_text}\nend;"
        return (text, run)

    if_stmt = st.tuples(cond_strategy(1), sub, sub).map(make_if)
    for_stmt = st.tuples(st.integers(0, 6), sub).map(make_for)
    return st.one_of(assign, if_stmt, for_stmt)


programs = st.lists(stmt_strategy(2), min_size=1, max_size=6)
initial_values = st.tuples(*[st.integers(-50, 50) for _ in VARS])


@settings(max_examples=25, deadline=None)
@given(programs, initial_values)
def test_random_programs_match_python(stmts, initials):
    env = dict(zip(VARS, initials))
    env.update(vi0=0, vi1=0, vi2=0)
    body = "\n".join(s for s, _f in stmts)
    inits = "\n".join(f"  {name} := {value};" for name, value in zip(VARS, initials))
    source = f"""
    program rnd;
    var va, vb, vc, vd, vi0, vi1, vi2: integer;
    begin
{inits}
{body}
      writeln(va); writeln(vb); writeln(vc); writeln(vd)
    end.
    """
    for _s, f in stmts:
        f(env)
    expected = [env[name] for name in VARS]

    compiled = compile_source(source)
    machine = Machine(compiled.program, hazard_mode=HazardMode.CHECKED)
    machine.run(10_000_000)
    assert machine.output == expected, source


@settings(max_examples=10, deadline=None)
@given(programs, initial_values)
def test_random_programs_agree_across_options(stmts, initials):
    """The same random program under no-regalloc and byte layout."""
    from repro.compiler import LayoutStrategy

    body = "\n".join(s for s, _f in stmts)
    inits = "\n".join(f"  {name} := {value};" for name, value in zip(VARS, initials))
    source = f"""
    program rnd;
    var va, vb, vc, vd, vi0, vi1, vi2: integer;
    begin
{inits}
{body}
      writeln(va); writeln(vb); writeln(vc); writeln(vd)
    end.
    """
    outputs = []
    for options in (
        CompileOptions(register_allocation=False),
        CompileOptions(layout=LayoutStrategy.BYTE_ALLOCATED),
    ):
        compiled = compile_source(source, options)
        machine = Machine(compiled.program, hazard_mode=HazardMode.CHECKED)
        machine.run(10_000_000)
        outputs.append(machine.output)
    assert outputs[0] == outputs[1], source
