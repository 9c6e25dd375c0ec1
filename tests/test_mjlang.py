"""The MiniJava front end: layout, lowering corners, differential identity.

The heavy full-matrix check (every corpus program x every opt level x
every engine, byte-compared) lives in CI's ``engine-differential``
job; tier-1 keeps the targeted corners: vtable slot assignment under
inheritance and override, field-offset stability, ``this`` threading
through nested dynamic calls, heap exhaustion as a structured fault,
and the corpus oracles on one full (level x engine) sweep of the
smallest program.
"""

import json

import pytest

from repro.cli import EXIT_USAGE, compile_main, sim_main
from repro.mjlang import MiniJavaError, analyze_minijava, check, compile_minijava, parse
from repro.reorg import ALL_LEVELS
from repro.sim import Machine, MachineFault
from repro.sim.faults import TrapInstruction
from repro.workloads import MINIJAVA_CORPUS, MINIJAVA_EXPECTED

ENGINES = {"precise": False, "fast": True}


def run_minijava(source, opt_level=None, fast=True, max_steps=5_000_000):
    machine = Machine(compile_minijava(source, opt_level=opt_level).program)
    machine.run(max_steps, fast=fast)
    return machine


HIERARCHY = """
class Main {
    public static void main(String[] a) {
        System.out.println(0);
    }
}

class Base {
    int f0;
    int f1;
    public int get(int k) { return f0; }
    public int sum(int k) { return f0 + f1; }
}

class Mid extends Base {
    int f2;
    public int sum(int k) { return f0 + f1 + f2; }
    public int extra(int k) { return f2; }
}

class Leaf extends Mid {
    int f3;
    public int get(int k) { return f3; }
}
"""


class TestClassLayout:
    def test_vtable_slots_under_inheritance_and_override(self):
        classes = check(parse(HIERARCHY)).classes
        base, mid, leaf = classes["Base"], classes["Mid"], classes["Leaf"]
        # slot order is declaration order, inherited-first, and an
        # override reuses its parent's slot -- the invariant indirect
        # dispatch relies on
        assert [(m.name, m.owner) for m in base.vtable] == [
            ("get", "Base"), ("sum", "Base"),
        ]
        assert [(m.name, m.owner) for m in mid.vtable] == [
            ("get", "Base"), ("sum", "Mid"), ("extra", "Mid"),
        ]
        assert [(m.name, m.owner) for m in leaf.vtable] == [
            ("get", "Leaf"), ("sum", "Mid"), ("extra", "Mid"),
        ]
        for info in (base, mid, leaf):
            assert [m.slot for m in info.vtable] == list(range(len(info.vtable)))

    def test_field_offsets_stable_across_subclassing(self):
        classes = check(parse(HIERARCHY)).classes
        # word 0 is the vtable pointer; inherited fields keep their
        # offsets so a Base-typed access works on any subclass instance
        assert classes["Base"].field_offsets == {"f0": 1, "f1": 2}
        assert classes["Mid"].field_offsets == {"f0": 1, "f1": 2, "f2": 3}
        assert classes["Leaf"].field_offsets == {"f0": 1, "f1": 2, "f2": 3, "f3": 4}
        assert classes["Base"].instance_words == 3
        assert classes["Leaf"].instance_words == 5

    def test_override_signature_mismatch_rejected(self):
        bad = HIERARCHY.replace(
            "public int extra(int k) { return f2; }",
            "public int get(int k, int j) { return f2; }",
        )
        with pytest.raises(MiniJavaError):
            check(parse(bad))

    def test_redeclaring_inherited_field_rejected(self):
        bad = HIERARCHY.replace("int f2;", "int f0;")
        with pytest.raises(MiniJavaError):
            check(parse(bad))


THIS_THREADING = """
class Main {
    public static void main(String[] a) {
        Counter c;
        c = new Counter();
        System.out.println(c.seed(5).addTwice(3));
        System.out.println(c.value(0));
    }
}

class Counter {
    int total;
    public Counter seed(int v) {
        total = v;
        return this;
    }
    public int add(int v) {
        total = total + v;
        return total;
    }
    public int addTwice(int v) {
        int first;
        first = this.add(v);
        return first + this.add(this.value(0));
    }
    public int value(int k) {
        return total;
    }
}
"""


class TestLoweringCorners:
    def test_this_threads_through_nested_dynamic_calls(self):
        # seed(5) -> add(3) = 8, add(value()=8) -> 16; addTwice = 8 + 16
        machine = run_minijava(THIS_THREADING)
        assert machine.output == [24, 16]

    def test_method_named_length_coexists_with_array_length(self):
        source = """
class Main {
    public static void main(String[] a) {
        Box b;
        int[] xs;
        xs = new int[7];
        b = new Box();
        System.out.println(b.length(xs.length));
    }
}
class Box {
    public int length(int n) { return n * 10; }
}
"""
        assert run_minijava(source).output == [70]

    def test_argument_side_effects_evaluate_left_to_right(self):
        source = """
class Main {
    public static void main(String[] a) {
        Acc x;
        x = new Acc();
        System.out.println(x.pair(x.bump(1), x.bump(10)));
        System.out.println(x.get(0));
    }
}
class Acc {
    int n;
    public int bump(int v) { n = n + v; return n; }
    public int pair(int p, int q) { return p * 100 + q; }
    public int get(int k) { return n; }
}
"""
        # left-to-right: bump(1) -> 1, bump(10) -> 11, pair = 111
        assert run_minijava(source).output == [111, 11]


HEAP_HOG = """
class Main {
    public static void main(String[] a) {
        int i;
        int[] chunk;
        i = 0;
        while (i < 16) {
            chunk = new int[65536];
            i = i + 1;
        }
        System.out.println(i);
    }
}
"""


class TestHeapExhaustion:
    def test_exhaustion_is_a_structured_trap_not_a_crash(self):
        # 16 x 65537-word allocations overrun the 2^19-word arena; the
        # runtime must raise trap #6 as a catchable machine fault
        with pytest.raises(MachineFault) as excinfo:
            run_minijava(HEAP_HOG)
        assert isinstance(excinfo.value, TrapInstruction)
        assert excinfo.value.code == 6

    def test_exhaustion_identical_on_every_engine(self):
        codes = set()
        for fast in ENGINES.values():
            with pytest.raises(TrapInstruction) as excinfo:
                run_minijava(HEAP_HOG, fast=fast)
            codes.add(excinfo.value.code)
        assert codes == {6}


class TestCorpusDifferential:
    @pytest.mark.parametrize("name", sorted(MINIJAVA_CORPUS))
    def test_corpus_matches_python_oracle(self, name):
        machine = run_minijava(MINIJAVA_CORPUS[name])
        assert machine.output == MINIJAVA_EXPECTED[name]

    def test_smallest_program_identical_across_levels_and_engines(self):
        source = MINIJAVA_CORPUS["mj_list"]
        outputs = set()
        for level in ALL_LEVELS:
            compiled = compile_minijava(source, opt_level=level)
            # engines must agree on everything, counters included, at
            # each level; levels only owe each other identical output
            per_engine = set()
            for fast in ENGINES.values():
                machine = Machine(compiled.program)
                stats = machine.run(fast=fast)
                per_engine.add((tuple(machine.output), machine.output_text,
                                stats.cycles, stats.words))
            assert len(per_engine) == 1, (level, per_engine)
            outputs.add(next(iter(per_engine))[:2])
        assert len(outputs) == 1, outputs
        assert list(next(iter(outputs))[0]) == MINIJAVA_EXPECTED["mj_list"]


class TestFrontEndErrors:
    def test_parse_error_is_structured(self):
        with pytest.raises(MiniJavaError):
            parse("class Main { public static void main(String[] a) { ")

    def test_println_requires_int(self):
        source = """
class Main {
    public static void main(String[] a) {
        System.out.println(1 < 2);
    }
}
"""
        with pytest.raises(MiniJavaError):
            analyze_minijava(source)

    def test_unknown_class_rejected(self):
        source = """
class Main {
    public static void main(String[] a) {
        Ghost g;
        g = new Ghost();
        System.out.println(0);
    }
}
"""
        with pytest.raises(MiniJavaError):
            analyze_minijava(source)


class TestLangFlag:
    def _assert_usage_error(self, exit_code, err, supported):
        assert exit_code == EXIT_USAGE
        assert "unknown --lang" in err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "unknown-lang"
        assert record["lang"] == "cobol"
        assert record["supported"] == supported

    def test_mipsc_rejects_unknown_lang(self, tmp_path, capsys):
        path = tmp_path / "p.java"
        path.write_text("class M {}")
        code = compile_main([str(path), "--lang", "cobol"])
        self._assert_usage_error(code, capsys.readouterr().err, ["minijava", "pascal"])

    def test_sim_rejects_unknown_lang(self, tmp_path, capsys):
        path = tmp_path / "p.s"
        path.write_text("start: trap #0\n")
        code = sim_main([str(path), "--lang", "cobol"])
        self._assert_usage_error(
            code, capsys.readouterr().err, ["asm", "minijava", "pascal"]
        )

    def test_mipsc_compiles_minijava_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "Main.java"
        path.write_text(THIS_THREADING)
        assert compile_main([str(path), "--lang", "minijava"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == ["24", "16"]
