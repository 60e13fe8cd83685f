"""Semantic checks: names, scopes, pragma placement."""

import pytest

from repro.frontend import compile_source
from repro.util.errors import FrontendError


def check(source):
    return compile_source(source)


class TestNames:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(FrontendError, match="undeclared variable 'x'"):
            check("func main() { x = 1; }")

    def test_duplicate_local_rejected(self):
        with pytest.raises(
            FrontendError, match="^1:0: duplicate declaration of 'x'"
        ):
            check("func main() { var x: int = 1; var x: int = 2; }")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(
            FrontendError, match="^2:0: duplicate declaration of 'x'"
        ):
            check("\nfunc f(x: int, x: float) { }")

    def test_for_body_redeclaring_loop_variable_rejected(self):
        with pytest.raises(
            FrontendError, match="^2:0: duplicate declaration of 'i'"
        ):
            check("func main() { for i in 0..4 {\nvar i: int; } }")

    def test_shadowing_in_inner_scope_allowed(self):
        check(
            "func main() { var x: int = 1; if (x > 0) { var x: int = 2; } }"
        )

    def test_duplicate_global_rejected(self):
        with pytest.raises(FrontendError, match="^2:0: duplicate global 'g'"):
            check("global g: int;\nglobal g: float;")

    def test_duplicate_function_rejected(self):
        with pytest.raises(
            FrontendError, match="^2:0: duplicate function 'f'"
        ):
            check("func f() { }\nfunc f() { }")

    def test_builtin_shadowing_rejected(self):
        with pytest.raises(
            FrontendError, match="function name 'sqrt' shadows a builtin"
        ):
            check("func sqrt() { }")

    def test_loop_variable_scoped_to_loop(self):
        with pytest.raises(FrontendError, match="undeclared variable 'i'"):
            check("func main() { for i in 0..4 { } print(i); }")

    def test_globals_visible_in_functions(self):
        check("global g: int;\nfunc main() { g = 3; }")


class TestCalls:
    def test_undeclared_function_rejected(self):
        with pytest.raises(
            FrontendError, match="call to undeclared function 'nope'"
        ):
            check("func main() { nope(); }")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(
            FrontendError,
            match="^2:0: call to 'f' passes 0 arguments, expected 1",
        ):
            check("func f(x: int) { }\nfunc main() { f(); }")

    def test_forward_references_allowed(self):
        check("func main() { later(); }\nfunc later() { }")


class TestReturns:
    def test_void_function_returning_value_rejected(self):
        with pytest.raises(
            FrontendError, match="void function returns a value"
        ):
            check("func f() { return 3; }")

    def test_nonvoid_function_returning_nothing_rejected(self):
        with pytest.raises(
            FrontendError, match="non-void function returns no value"
        ):
            check("func f() -> int { return; }")


class TestPragmaPlacement:
    def test_worksharing_requires_for(self):
        with pytest.raises(
            FrontendError, match="directive 'for' must annotate a for loop"
        ):
            check("func main() { pragma omp for\nvar x: int = 1; }")

    def test_clause_variable_must_be_declared(self):
        with pytest.raises(
            FrontendError,
            match="pragma clause names undeclared variable 'ghost'",
        ):
            check(
                "func main() { pragma omp for private(ghost)\n"
                "for i in 0..4 { } }"
            )

    def test_loop_variable_usable_in_clause(self):
        check(
            "func main() { pragma omp for lastprivate(i)\n"
            "for i in 0..4 { } }"
        )

    def test_anyvalue_requires_scalar(self):
        with pytest.raises(
            FrontendError, match=r"^2:0: anyvalue\(a\) requires a scalar"
        ):
            check(
                "func main() { var a: int[3];\n"
                "pragma omp for anyvalue(a)\nfor i in 0..4 { } }"
            )

    def test_array_global_initializer_rejected(self):
        with pytest.raises(
            FrontendError, match="array globals cannot have initializers"
        ):
            check("global a: int[3] = 1;")

    def test_threadprivate_recorded(self):
        module = check(
            "global t: int;\npragma omp threadprivate(t)\nfunc main() { }"
        )
        assert module.metadata["threadprivate"] == {"t"}


class TestErrorOrder:
    def test_first_error_in_source_order_wins(self):
        # A type error on line 1 beats an undeclared name on line 2.
        with pytest.raises(
            FrontendError, match="^1:0: cannot convert int to bool"
        ):
            check("func main() { var z: bool = 1;\nvar x: int = y; }")
