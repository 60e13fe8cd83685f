"""Reference interpreter: semantics, output, faults, profiling hooks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import run_source
from repro.util.errors import EmulationError
from support.profile_shapes import loop_instances


def outputs(source):
    return run_source(source).formatted_output()


class TestArithmetic:
    def test_integer_ops(self):
        assert outputs(
            "func main() { print(7 + 3, 7 - 3, 7 * 3, 7 / 3, 7 % 3); }"
        ) == ["10 4 21 2 1"]

    def test_truncating_division_toward_zero(self):
        assert outputs("func main() { print(-7 / 2, -7 % 2); }") == ["-3 -1"]

    def test_float_math(self):
        assert outputs(
            "func main() { print(sqrt(9.0), floor(2.7), abs(-1.5)); }"
        ) == ["3 2 1.5"]

    def test_min_max(self):
        assert outputs("func main() { print(min(2, 5), max(2, 5)); }") == [
            "2 5"
        ]

    def test_casts(self):
        assert outputs(
            "func main() { print(int(3.9), float(2) * 0.5, int(true)); }"
        ) == ["3 1 1"]

    def test_comparisons_and_logic(self):
        assert outputs(
            "func main() { print(1 < 2 && 3 > 4, 1 < 2 || 3 > 4, !(1 < 2)); }"
        ) == ["false true false"]

    def test_division_by_zero_raises(self):
        with pytest.raises(EmulationError):
            run_source("func main() { var z: int = 0; print(1 / z); }")

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_addition_matches_python(self, a, b):
        result = run_source(
            f"func main() {{ print({a} + {b}, {a} * {b}); }}"
        )
        assert result.output[0][1] == (a + b, a * b)


class TestControlFlow:
    def test_if_else(self):
        assert outputs(
            "func main() { var x: int = 3;\n"
            "if (x > 2) { print(1); } else { print(2); } }"
        ) == ["1"]

    def test_for_loop_accumulation(self):
        assert outputs(
            "func main() { var s: int = 0;\n"
            "for i in 0..5 { s = s + i; } print(s); }"
        ) == ["10"]

    def test_for_loop_with_step(self):
        assert outputs(
            "func main() { var s: int = 0;\n"
            "for i in 0..10 step 3 { s = s + i; } print(s); }"
        ) == ["18"]

    def test_while_loop(self):
        assert outputs(
            "func main() { var x: int = 1;\n"
            "while (x < 100) { x = x * 2; } print(x); }"
        ) == ["128"]

    def test_nested_loops(self):
        assert outputs(
            "func main() { var s: int = 0;\n"
            "for i in 0..3 { for j in 0..3 { s = s + i * j; } } print(s); }"
        ) == ["9"]

    def test_infinite_loop_guard(self):
        from repro.emulator.interp import Interpreter
        from repro.frontend import compile_source

        module = compile_source(
            "func main() { var x: int = 0; while (x < 1) { x = x * 1; } }"
        )
        with pytest.raises(EmulationError):
            Interpreter(module, max_steps=10_000).run()


class TestMemory:
    def test_arrays_zero_initialized(self):
        assert outputs(
            "func main() { var a: int[4]; print(a[0], a[3]); }"
        ) == ["0 0"]

    def test_multidim_arrays(self):
        assert outputs(
            "func main() { var m: int[2][3];\n"
            "m[1][2] = 42; print(m[1][2], m[0][0]); }"
        ) == ["42 0"]

    def test_global_initializer(self):
        assert outputs(
            "global g: int = 9;\nfunc main() { print(g); }"
        ) == ["9"]

    def test_out_of_bounds_raises(self):
        with pytest.raises(EmulationError):
            run_source(
                "func main() { var a: int[2]; var i: int = 5; a[i] = 1; }"
            )

    def test_alloca_in_loop_names_one_object(self):
        # The same alloca re-executed yields the same storage: values
        # persist across iterations.
        assert outputs(
            "func main() {\n"
            "  for i in 0..3 {\n"
            "    var t: int;\n"
            "    t = t + 1;\n"
            "  }\n"
            "  print(1);\n"
            "}"
        ) == ["1"]


class TestCalls:
    def test_scalar_arguments_by_value(self):
        assert outputs(
            "func bump(x: int) -> int { x = x + 1; return x; }\n"
            "func main() { var v: int = 5; print(bump(v), v); }"
        ) == ["6 5"]

    def test_array_arguments_by_reference(self):
        assert outputs(
            "func fill(a: int[3]) { a[1] = 7; }\n"
            "func main() { var a: int[3]; fill(a); print(a[1]); }"
        ) == ["7"]

    def test_recursion(self):
        assert outputs(
            "func fib(n: int) -> int {\n"
            "  if (n < 2) { return n; }\n"
            "  return fib(n - 1) + fib(n - 2);\n"
            "}\n"
            "func main() { print(fib(10)); }"
        ) == ["55"]

    def test_recursive_calls_have_separate_frames(self):
        assert outputs(
            "func weird(n: int) -> int {\n"
            "  var local: int = n;\n"
            "  if (n > 0) { var ignore: int = weird(n - 1); }\n"
            "  return local;\n"
            "}\n"
            "func main() { print(weird(3)); }"
        ) == ["3"]


class TestOutput:
    def test_labels(self):
        assert outputs('func main() { print("x =", 42); }') == ["x = 42"]

    def test_print_order_is_program_order(self):
        assert outputs(
            "func main() { print(1); print(2); print(3); }"
        ) == ["1", "2", "3"]

    def test_float_formatting(self):
        assert outputs("func main() { print(0.1 + 0.2); }") == ["0.3"]


class TestProfiling:
    def test_profile_totals_match_steps(self):
        result = run_source(
            "func main() { var s: int = 0;\n"
            "for i in 0..10 { s = s + i; } print(s); }",
            profile=True,
        )
        assert result.profile.total() == result.steps

    def test_loop_instances_and_iterations(self):
        result = run_source(
            "func main() { for i in 0..4 { for j in 0..3 { } } }",
            profile=True,
        )
        outer = loop_instances(result.profile, "for.header")
        assert len(outer) == 1
        inner = loop_instances(result.profile, "for.header.1")
        # One inner instance per completed outer iteration.
        assert len(inner) == 4
        assert all(li.trip_count >= 3 for li in inner)

    def test_callee_work_attributed_to_call(self):
        result = run_source(
            "func heavy() { for i in 0..10 { } }\n"
            "func main() { heavy(); }",
            profile=True,
        )
        # All of heavy()'s dynamic work lands on the call instruction in
        # main's profile.
        assert result.profile.total() == result.steps
