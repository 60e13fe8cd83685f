"""Scalar reduction recognition and sequential privatization."""

from repro.analysis import FunctionAnalyses
from repro.frontend import compile_source


def analyze(source):
    module = compile_source(source)
    analyses = FunctionAnalyses(module.function("main"), module)
    loop = analyses.loops[0]
    return analyses.scalar_reductions(loop), analyses.privatizable(loop)


class TestReductions:
    def test_sum_recognized(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; } print(s); }"
        )
        assert len(reductions) == 1
        assert reductions[0].op == "add"

    def test_product_recognized(self):
        reductions, _ = analyze(
            "func main() { var p: int = 1;\n"
            "for i in 1..5 { p = p * i; } print(p); }"
        )
        assert reductions and reductions[0].op == "mul"

    def test_max_recognized(self):
        reductions, _ = analyze(
            "global a: int[4];\n"
            "func main() { var m: int = 0;\n"
            "for i in 0..4 { m = max(m, a[i]); } print(m); }"
        )
        assert reductions and reductions[0].op == "max"

    def test_conditional_update_recognized(self):
        reductions, _ = analyze(
            "global a: int[4];\n"
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { if (a[i] > 0) { s = s + a[i]; } } print(s); }"
        )
        assert len(reductions) == 1

    def test_subtraction_not_recognized(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s - i; } print(s); }"
        )
        assert reductions == []

    def test_extra_use_defeats_recognition(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; print(s); } }"
        )
        assert reductions == []

    def test_self_dependent_operand_rejected(self):
        reductions, _ = analyze(
            "func main() { var s: int = 1;\n"
            "for i in 0..4 { s = s + s; } print(s); }"
        )
        assert reductions == []

    def test_identity_values(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; } print(s); }"
        )
        assert reductions[0].identity_value("int") == 0


class TestPrivatization:
    def test_defined_before_use_and_dead_after(self):
        _, privatizable = analyze(
            "global a: int[4];\n"
            "func main() { for i in 0..4 {\n"
            "  var t: int = a[i] * 2;\n"
            "  a[i] = t + 1;\n"
            "} }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" in names

    def test_liveout_scalar_not_privatizable(self):
        _, privatizable = analyze(
            "func main() { var t: int = 0;\n"
            "for i in 0..4 { t = i; } print(t); }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" not in names

    def test_use_before_def_not_privatizable(self):
        _, privatizable = analyze(
            "func main() { var t: int = 0;\n"
            "for i in 0..4 { var x: int = t + 1; t = x; } }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" not in names

    def test_def_dominating_use_across_blocks(self):
        _, privatizable = analyze(
            "global a: int[8];\n"
            "func main() { for i in 0..8 {\n"
            "  var t: int = a[i];\n"
            "  if (t > 2) { a[i] = t * 2; }\n"
            "} }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" in names
