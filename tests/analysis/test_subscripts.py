"""Affine subscript extraction and AffineExpr algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.loops import find_natural_loops
from repro.analysis.subscripts import (
    AffineExpr,
    affine_offset,
    induction_alloca_map,
)
from repro.frontend import compile_source
from repro.ir.instructions import Store


def offsets_of_stores(source):
    module = compile_source(source)
    function = module.function("main")
    loops = find_natural_loops(function)
    ivs = set(induction_alloca_map(loops))
    return [
        affine_offset(inst.pointer, ivs)
        for inst in function.instructions()
        if isinstance(inst, Store) and inst.pointer.opcode == "gep"
    ]


class TestAffineExtraction:
    def test_direct_iv_index(self):
        (offset,) = offsets_of_stores(
            "global a: int[8];\nfunc main() { for i in 0..8 { a[i] = 1; } }"
        )
        assert offset is not None
        assert offset.constant == 0
        assert list(offset.coefficients.values()) == [1]

    def test_linear_expression_index(self):
        (offset,) = offsets_of_stores(
            "global a: int[64];\n"
            "func main() { for i in 0..8 { a[i * 4 + 3] = 1; } }"
        )
        assert offset.constant == 3
        assert list(offset.coefficients.values()) == [4]

    def test_two_level_index_combines_ivs(self):
        (offset,) = offsets_of_stores(
            "global a: int[64];\n"
            "func main() { for i in 0..8 { for j in 0..8 {"
            " a[i * 8 + j] = 1; } } }"
        )
        assert sorted(offset.coefficients.values()) == [1, 8]

    def test_multidim_gep_strides(self):
        (offset,) = offsets_of_stores(
            "global m: int[8][8];\n"
            "func main() { for i in 0..8 { for j in 0..8 {"
            " m[i][j] = 1; } } }"
        )
        assert sorted(offset.coefficients.values()) == [1, 8]

    def test_indirect_index_is_not_affine(self):
        (offset,) = offsets_of_stores(
            "global a: int[8];\nglobal k: int[8];\n"
            "func main() { for i in 0..8 { a[k[i]] = 1; } }"
        )
        assert offset is None

    def test_modulo_is_not_affine(self):
        (offset,) = offsets_of_stores(
            "global a: int[8];\n"
            "func main() { for i in 0..64 { a[i % 8] = 1; } }"
        )
        assert offset is None

    def test_subtraction_and_negation(self):
        (offset,) = offsets_of_stores(
            "global a: int[16];\n"
            "func main() { for i in 0..8 { a[15 - i] = 1; } }"
        )
        assert offset.constant == 15
        assert list(offset.coefficients.values()) == [-1]


class TestAffineAlgebra:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_const_addition(self, a, b):
        expr = AffineExpr.const(a).add(AffineExpr.const(b))
        assert expr.constant == a + b
        assert expr.is_constant()

    @given(st.integers(-50, 50), st.integers(-10, 10))
    def test_scaling_distributes(self, c, k):
        class FakeVar:
            var_name = "v"
            uid = 0

        var = FakeVar()
        expr = AffineExpr(c, {var: 3}).scale(k)
        if k == 0:
            assert expr.is_constant() and expr.constant == 0
        else:
            assert expr.constant == c * k
            assert expr.coefficient(var) == 3 * k

    def test_cancellation_removes_zero_terms(self):
        class FakeVar:
            var_name = "v"
            uid = 0

        var = FakeVar()
        expr = AffineExpr(0, {var: 2}).add(AffineExpr(0, {var: -2}))
        assert expr.is_constant()

    def test_negate_roundtrip(self):
        class FakeVar:
            var_name = "v"
            uid = 0

        var = FakeVar()
        expr = AffineExpr(7, {var: 3})
        assert expr.negate().negate().constant == expr.constant
        assert expr.negate().coefficient(var) == -3
