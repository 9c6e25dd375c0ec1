"""The compiler: layout, code generation, runtime library, options matrix."""

import pytest

from repro.compiler import (
    BooleanStrategy,
    CompileError,
    CompileOptions,
    Layout,
    LayoutStrategy,
    compile_source,
    piece_stream,
)
from repro.lang.types import (
    BOOLEAN,
    CHAR,
    INTEGER,
    ArrayType,
    RecordType,
)
from repro.sim import HazardMode, Machine


def run(source, options=None, inputs=None, max_steps=5_000_000):
    compiled = compile_source(source, options)
    machine = Machine(compiled.program, hazard_mode=HazardMode.CHECKED, inputs=inputs)
    machine.run(max_steps)
    return machine


def outputs(source, **kwargs):
    return run(source, **kwargs).output


class TestLayout:
    word = Layout(LayoutStrategy.WORD_ALLOCATED)
    byte = Layout(LayoutStrategy.BYTE_ALLOCATED)

    def test_scalars_one_word_either_way(self):
        for layout in (self.word, self.byte):
            assert layout.type_words(INTEGER) == 1
            assert layout.type_words(CHAR) == 1
            assert layout.type_words(BOOLEAN) == 1

    def test_unpacked_char_array(self):
        chars = ArrayType(0, 9, CHAR)
        assert self.word.type_words(chars) == 10   # a word per char
        assert self.byte.type_words(chars) == 3    # packed into bytes

    def test_packed_char_array_bytes_in_both(self):
        packed = ArrayType(0, 9, CHAR, packed=True)
        assert self.word.type_words(packed) == 3
        assert self.byte.type_words(packed) == 3

    def test_integer_array_unaffected(self):
        ints = ArrayType(0, 9, INTEGER)
        assert self.word.type_words(ints) == self.byte.type_words(ints) == 10

    def test_record_field_offsets(self):
        record = RecordType((("a", INTEGER), ("c", CHAR), ("b", INTEGER)))
        size, _ = self.word.record_layout(record)
        assert size == 3
        assert self.word.field_slot(record, "a").word_offset == 0
        assert self.word.field_slot(record, "b").word_offset == 2

    def test_byte_layout_packs_char_fields(self):
        record = RecordType((("a", INTEGER), ("c", CHAR), ("d", CHAR)))
        size, _ = self.byte.record_layout(record)
        assert size == 2  # one word for a, one byte-pool word for c+d
        slot_c = self.byte.field_slot(record, "c")
        slot_d = self.byte.field_slot(record, "d")
        assert slot_c.byte_grain and slot_d.byte_grain
        assert (slot_c.word_offset, slot_c.byte_offset) == (1, 0)
        assert (slot_d.word_offset, slot_d.byte_offset) == (1, 1)

    def test_globals_smaller_under_byte_layout(self):
        source = """
        program g;
        var text: array [0..99] of char;
            n: integer;
        begin n := 0 end.
        """
        word = compile_source(source, CompileOptions(layout=LayoutStrategy.WORD_ALLOCATED))
        byte = compile_source(source, CompileOptions(layout=LayoutStrategy.BYTE_ALLOCATED))
        assert word.unit.globals_words > byte.unit.globals_words


class TestExpressions:
    def test_arithmetic(self):
        assert outputs(
            "program p; begin writeln(2 + 3 * 4 - 1) end."
        ) == [13]

    def test_division_truncates_toward_zero(self):
        source = """
        program p;
        var a: integer;
        begin
          a := -7;
          writeln(a div 2);
          writeln(a mod 2);
          writeln(7 div -2);
          writeln(7 mod 2)
        end.
        """
        assert outputs(source) == [-3, -1, -3, 1]

    def test_division_by_zero_traps(self):
        from repro.sim import TrapInstruction

        source = """
        program p;
        var a, b: integer;
        begin a := 1; b := 0; writeln(a div b) end.
        """
        compiled = compile_source(source)
        machine = Machine(compiled.program)
        with pytest.raises(TrapInstruction):
            machine.run()

    def test_multiply_strength_reduction_matches_runtime(self):
        # powers of two and sparse constants avoid the runtime routine
        source = """
        program p;
        var x: integer;
        begin
          x := 7;
          writeln(x * 8);
          writeln(x * 12);
          writeln(x * 100);
          writeln(x * 31)
        end.
        """
        assert outputs(source) == [56, 84, 700, 217]

    def test_multiply_by_literal_beyond_32_bits(self):
        # strength reduction works on the register image: 2**32 is 0 and
        # 2**32 + 3 is 3 (no shift-and-add sequence is empty)
        source = """
        program p;
        var x: integer;
        begin
          x := 7;
          writeln(x * 5);
          writeln(x * 4294967296);
          writeln(x * 4294967299)
        end.
        """
        assert outputs(source) == [35, 0, 21]

    def test_negative_multiplication(self):
        source = """
        program p;
        var a, b: integer;
        begin a := -5; b := 7; writeln(a * b); writeln(b * a) end.
        """
        assert outputs(source) == [-35, -35]

    def test_char_comparisons(self):
        source = """
        program p;
        var c: char;
        begin
          c := 'm';
          if (c >= 'a') and (c <= 'z') then writeln(1) else writeln(0)
        end.
        """
        assert outputs(source) == [1]

    def test_deep_expression(self):
        assert outputs(
            "program p; begin writeln(((1+2)*(3+4)) + ((5+6)*(7+8))) end."
        ) == [21 + 165]

    def test_ord_chr_abs_odd(self):
        source = """
        program p;
        begin
          writeln(ord('A'));
          writeln(ord(chr(66)));
          writeln(abs(-9));
          writeln(abs(9));
          if odd(3) then writeln(1) else writeln(0);
          if odd(4) then writeln(1) else writeln(0)
        end.
        """
        assert outputs(source) == [65, 66, 9, 9, 1, 0]


class TestBooleanStrategies:
    SOURCE = """
    program p;
    var rec, key, i: integer;
        found: boolean;
    begin
      rec := 5; key := 5; i := 7;
      found := (rec = key) or (i = 13);
      if found then writeln(1) else writeln(0);
      found := (rec = 4) and not (i = 13);
      if found then writeln(1) else writeln(0);
      found := not found;
      if found then writeln(1) else writeln(0)
    end.
    """

    @pytest.mark.parametrize("strategy", list(BooleanStrategy))
    def test_strategies_agree(self, strategy):
        options = CompileOptions(boolean_strategy=strategy)
        assert outputs(self.SOURCE, options=options) == [1, 0, 1]

    def test_setcond_strategy_emits_no_branches_for_stores(self):
        from repro.isa.pieces import SetCond

        source = """
        program p;
        var a, b: integer; f: boolean;
        begin a := 1; b := 2; f := (a = b) or (a < b) end.
        """
        stream = piece_stream(source, CompileOptions(
            boolean_strategy=BooleanStrategy.SET_CONDITIONALLY))
        assert any(isinstance(p, SetCond) for _l, p in stream)

    def test_branching_strategy_avoids_setcond(self):
        from repro.isa.pieces import SetCond

        source = """
        program p;
        var a, b: integer; f: boolean;
        begin a := 1; b := 2; f := (a = b) or (a < b) end.
        """
        stream = piece_stream(source, CompileOptions(
            boolean_strategy=BooleanStrategy.BRANCHING))
        assert not any(isinstance(p, SetCond) for _l, p in stream)


class TestDataStructures:
    def test_nested_arrays(self):
        source = """
        program p;
        var m: array [0..3] of array [0..3] of integer;
            i, j, total: integer;
        begin
          for i := 0 to 3 do
            for j := 0 to 3 do
              m[i][j] := i * 10 + j;
          total := 0;
          for i := 0 to 3 do total := total + m[i][i];
          writeln(total)
        end.
        """
        assert outputs(source) == [0 + 11 + 22 + 33]

    def test_array_of_records(self):
        source = """
        program p;
        type pt = record x, y: integer end;
        var a: array [0..2] of pt;
            i, s: integer;
        begin
          for i := 0 to 2 do begin
            a[i].x := i;
            a[i].y := i * i
          end;
          s := 0;
          for i := 0 to 2 do s := s + a[i].x + a[i].y;
          writeln(s)
        end.
        """
        assert outputs(source) == [0 + 0 + 1 + 1 + 2 + 4]

    def test_record_with_char_fields_both_layouts(self):
        source = """
        program p;
        type entry = record tag: char; count: integer; mark: char end;
        var e: entry;
        begin
          e.tag := 'x';
          e.count := 42;
          e.mark := 'y';
          write(e.tag);
          writeln(e.count);
          write(e.mark)
        end.
        """
        for layout in LayoutStrategy:
            machine = run(source, CompileOptions(layout=layout))
            assert machine.output == [42]
            assert "x" in machine.output_text and "y" in machine.output_text

    def test_nonlocal_array_bounds(self):
        source = """
        program p;
        var a: array [5..9] of integer;
            i: integer;
        begin
          for i := 5 to 9 do a[i] := i;
          writeln(a[5] + a[9])
        end.
        """
        assert outputs(source) == [14]

    def test_byte_array_boundaries(self):
        # bytes crossing word boundaries in a packed array
        source = """
        program p;
        var s: packed array [0..7] of char;
            i, total: integer;
        begin
          for i := 0 to 7 do s[i] := chr(i + 1);
          total := 0;
          for i := 0 to 7 do total := total + ord(s[i]);
          writeln(total)
        end.
        """
        for layout in LayoutStrategy:
            assert outputs(source, options=CompileOptions(layout=layout)) == [36]


class TestProceduresAndFunctions:
    def test_recursion_depth(self):
        source = """
        program p;
        function depth(n: integer): integer;
        begin
          if n = 0 then depth := 0 else depth := depth(n - 1) + 1
        end;
        begin writeln(depth(150)) end.
        """
        assert outputs(source) == [150]

    def test_mutual_style_calls(self):
        source = """
        program p;
        var total: integer;
        function double(n: integer): integer;
        begin double := n * 2 end;
        function quad(n: integer): integer;
        begin quad := double(double(n)) end;
        begin writeln(quad(5)) end.
        """
        assert outputs(source) == [20]

    def test_var_param_array_element(self):
        source = """
        program p;
        var a: array [0..3] of integer;
        procedure bump(var x: integer);
        begin x := x + 1 end;
        begin
          a[2] := 10;
          bump(a[2]);
          writeln(a[2])
        end.
        """
        assert outputs(source) == [11]

    def test_var_param_through_chain(self):
        source = """
        program p;
        var g: integer;
        procedure inner(var x: integer);
        begin x := x * 3 end;
        procedure outer(var y: integer);
        begin inner(y) end;
        begin g := 7; outer(g); writeln(g) end.
        """
        assert outputs(source) == [21]

    def test_many_arguments(self):
        source = """
        program p;
        function sum6(a, b, c, d, e, f: integer): integer;
        begin sum6 := a + b + c + d + e + f end;
        begin writeln(sum6(1, 2, 3, 4, 5, 6)) end.
        """
        assert outputs(source) == [21]

    def test_function_result_in_nested_calls_with_live_temps(self):
        source = """
        program p;
        function f(n: integer): integer;
        begin f := n + 1 end;
        begin writeln(f(1) + f(2) * f(3)) end.
        """
        assert outputs(source) == [2 + 3 * 4]

    def test_register_allocation_matches_memory_variables(self):
        source = """
        program p;
        var total: integer;
        function work(n: integer): integer;
        var i, acc: integer;
        begin
          acc := 0;
          for i := 1 to n do acc := acc + i * i;
          work := acc
        end;
        begin writeln(work(10)) end.
        """
        with_ra = outputs(source, options=CompileOptions(register_allocation=True))
        without = outputs(source, options=CompileOptions(register_allocation=False))
        assert with_ra == without == [385]

    def test_addressed_variable_not_registered(self):
        # x is passed by reference: it must live in memory even with
        # register allocation on
        source = """
        program p;
        procedure setit(var v: integer);
        begin v := 99 end;
        function f: integer;
        var x, i, acc: integer;
        begin
          x := 1;
          acc := 0;
          for i := 1 to 8 do acc := acc + x;  { x is hot }
          setit(x);
          f := acc + x
        end;
        begin writeln(f) end.
        """
        assert outputs(source) == [8 + 99]


class TestControlFlow:
    def test_for_zero_iterations(self):
        source = """
        program p;
        var i, n: integer;
        begin
          n := 0;
          for i := 5 to 4 do n := n + 1;
          writeln(n)
        end.
        """
        assert outputs(source) == [0]

    def test_for_downto(self):
        source = """
        program p;
        var i, n: integer;
        begin
          n := 0;
          for i := 5 downto 1 do n := n * 10 + i;
          writeln(n)
        end.
        """
        assert outputs(source) == [54321]

    def test_for_limit_evaluated_once(self):
        source = """
        program p;
        var i, n, count: integer;
        begin
          n := 3;
          count := 0;
          for i := 1 to n do begin
            n := 100;  { must not extend the loop }
            count := count + 1
          end;
          writeln(count)
        end.
        """
        assert outputs(source) == [3]

    def test_while_false_never_runs(self):
        source = """
        program p;
        var n: integer;
        begin
          n := 7;
          while false do n := 0;
          writeln(n)
        end.
        """
        assert outputs(source) == [7]

    def test_repeat_runs_at_least_once(self):
        source = """
        program p;
        var n: integer;
        begin
          n := 0;
          repeat n := n + 1 until true;
          writeln(n)
        end.
        """
        assert outputs(source) == [1]


class TestIO:
    def test_read_int(self):
        source = """
        program p;
        var x, y: integer;
        begin read(x); read(y); writeln(x + y) end.
        """
        assert outputs(source, inputs=[30, 12]) == [42]

    def test_write_string_and_chars(self):
        machine = run("program p; begin write('ok: '); write('!'); writeln end.")
        assert machine.output_text == "ok: !\n"

    def test_write_boolean_as_integer(self):
        source = "program p; var b: boolean; begin b := true; writeln(b) end."
        assert outputs(source) == [1]


class TestErrors:
    def test_string_outside_write(self):
        from repro.lang import SemanticError

        with pytest.raises(SemanticError):
            compile_source("program p; var c: char; begin c := 'xy' end.")
