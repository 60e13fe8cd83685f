"""Lowering: AST -> annotated IR."""

import re

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.frontend import compile_source
from repro.ir.verifier import verify_module
from repro.util.errors import FrontendError


class TestStructure:
    def test_module_verifies(self):
        module = compile_source(
            "func main() { var x: int = 1; print(x); }"
        )
        verify_module(module)

    def test_for_records_canonical_loop(self):
        module = compile_source("func main() { for i in 2..9 step 3 { } }")
        function = module.function("main")
        assert len(function.loop_info) == 1
        loop = next(iter(function.loop_info.values()))
        assert loop.lower.value == 2
        assert loop.upper.value == 9
        assert loop.step.value == 3

    def test_natural_loop_matches_canonical(self):
        module = compile_source(
            "func main() { for i in 0..4 { for j in 0..4 { } } }"
        )
        loops = FunctionAnalyses(module.function("main"), module).loops
        assert len(loops) == 2
        assert all(loop.canonical is not None for loop in loops)
        inner = [loop for loop in loops if loop.parent is not None]
        assert len(inner) == 1

    def test_unreachable_code_after_return_is_sealed(self):
        module = compile_source(
            "func f() -> int { return 1; print(2); }\nfunc main() { }"
        )
        verify_module(module)

    def test_if_without_else(self):
        module = compile_source(
            "func main() { var x: int = 1; if (x > 0) { x = 2; } print(x); }"
        )
        verify_module(module)


class TestAnnotations:
    def test_region_blocks_are_sese(self):
        module = compile_source(
            "func main() {\n"
            "  pragma omp parallel\n"
            "  { var x: int = 1; print(x); }\n"
            "}"
        )
        function = module.function("main")
        (annotation,) = function.annotations
        assert annotation.directive.kind == "parallel"
        names = {b.name for b in function.blocks}
        assert set(annotation.block_names) <= names

    def test_nested_regions_record_parents(self):
        module = compile_source(
            "func main() {\n"
            "  pragma omp parallel\n"
            "  {\n"
            "    pragma omp for\n"
            "    for i in 0..4 { }\n"
            "  }\n"
            "}"
        )
        annotations = {
            a.directive.kind: a for a in module.function("main").annotations
        }
        assert annotations["for"].parent_uid == annotations["parallel"].uid

    def test_loop_header_recorded_for_worksharing(self):
        module = compile_source(
            "func main() { pragma omp for\nfor i in 0..4 { } }"
        )
        (annotation,) = module.function("main").annotations
        assert annotation.loop_header is not None
        assert annotation.loop_header in module.function("main").loop_info

    def test_clause_bindings_resolved(self):
        module = compile_source(
            "func main() {\n"
            "  var s: int = 0;\n"
            "  pragma omp for reduction(+: s)\n"
            "  for i in 0..4 { s = s + i; }\n"
            "  print(s);\n"
            "}"
        )
        (annotation,) = module.function("main").annotations
        binding = annotation.binding("s")
        assert binding.var_name == "s"

    def test_threadprivate_in_module_metadata(self):
        module = compile_source(
            "global t: int;\npragma omp threadprivate(t)\nfunc main() { }"
        )
        assert module.metadata["threadprivate"] == {"t"}

    def test_nested_pragma_region_containment(self):
        module = compile_source(
            "func main() {\n"
            "  pragma omp parallel\n"
            "  pragma omp for\n"
            "  for i in 0..4 { }\n"
            "}"
        )
        annotations = module.function("main").annotations
        by_kind = {a.directive.kind: a for a in annotations}
        assert set(by_kind["for"].block_names) < set(
            by_kind["parallel"].block_names
        )


class TestTypesAndCoercions:
    def test_int_to_float_promotion(self):
        module = compile_source(
            "func main() { var x: float = 1 + 2.5; print(x); }"
        )
        verify_module(module)

    def test_bool_condition_required(self):
        with pytest.raises(FrontendError):
            compile_source("func main() { if (1) { } }")

    def test_array_to_scalar_assignment_rejected(self):
        with pytest.raises(FrontendError):
            compile_source(
                "func main() { var a: int[3]; var x: int = 0; x = a; }"
            )

    def test_string_outside_print_rejected(self):
        with pytest.raises(FrontendError):
            compile_source('func main() { var x: int = "no"; }')

    def test_array_argument_passed_by_reference(self):
        module = compile_source(
            "func fill(a: int[4]) { a[0] = 7; }\n"
            "func main() { var a: int[4]; fill(a); print(a[0]); }"
        )
        verify_module(module)


class TestMalformedSource:
    @pytest.mark.parametrize(
        "call, name, passed, expected",
        [("sqrt()", "sqrt", 0, 1), ("min(1)", "min", 1, 2),
         ("max(1, 2, 3)", "max", 3, 2)],
    )
    def test_builtin_arity_checked(self, call, name, passed, expected):
        with pytest.raises(
            FrontendError,
            match=f"^2:0: call to '{name}' passes {passed} arguments, "
            f"expected {expected}",
        ):
            compile_source(f"func main() {{\nvar x: float = {call}; }}")

    @pytest.mark.parametrize("op", ["%", "&", "|", "^"])
    def test_int_only_operator_on_float_rejected(self, op):
        with pytest.raises(
            FrontendError,
            match=rf"^2:0: operator '\{op}' requires int operands, got float",
        ):
            compile_source(
                "func main() { var x: float = 1.5;\n"
                f"var y: float = x {op} 2; }}"
            )

    @pytest.mark.parametrize(
        "decl, got", [("int", "int"), ("int[4]", r"\[4 x int\]")]
    )
    def test_array_parameter_shape_checked(self, decl, got):
        with pytest.raises(
            FrontendError,
            match=rf"^3:0: argument 'x' of 'f' must be \[3 x int\], got {got}$",
        ):
            compile_source(
                "func f(x: int[3]) { }\n"
                f"func main() {{ var a: {decl};\nf(a); }}"
            )

    @pytest.mark.parametrize("statements, message", [
        pytest.param(statements, message, id=name)
        for name, statements, message in [
            ("negated-bool", "\nvar x: int = -true;",
             "operator '-' requires int or float operands, got bool"),
            ("abs-of-bool", "\nvar x: int = abs(true);",
             "'abs' requires int or float operands, got bool"),
            ("bool-sum", "\nvar x: bool = true + false;",
             "operator '+' requires int or float operands, got bool"),
            ("int-of-array", "var a: int[3];\nvar x: int = int(a);",
             "cannot convert [3 x int]* to int"),
            ("array-compare",
             "var a: int[3]; var b: int[3];\nvar x: bool = a < b;",
             "operator '<' requires int or float operands, got [3 x int]*"),
            ("print-array", "var a: int[3];\nprint(a);",
             "print requires int or float or bool operands, got [3 x int]*"),
            ("bool-reduction", "var b: bool = true;\n"
             "pragma omp parallel for reduction(+: b)\nfor i in 0..4 { }",
             "reduction(+: b) requires int or float operands, got bool"),
            ("array-reducer", "\nvar x: int[3] reducer(+);",
             "reducer(+) requires int or float operands, got [3 x int]"),
        ]
    ])
    def test_operand_type_checked(self, statements, message):
        with pytest.raises(
            FrontendError, match=f"^2:0: {re.escape(message)}$"
        ):
            compile_source(f"func main() {{ {statements} }}")
