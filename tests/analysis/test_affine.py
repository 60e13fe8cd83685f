"""Affine forms: extraction under both leaf policies, and the algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.affine import (
    AffineExpr,
    gep_offset,
    induction_alloca_map,
    induction_leaf,
)
from repro.analysis.loops import find_natural_loops
from repro.codegen.lower import _Lowering
from repro.frontend import compile_source
from repro.ir.instructions import Store


def _analysis_offsets(function, loops):
    """The dependence tests' policy: loads of canonical inductions."""
    leaf = induction_leaf(induction_alloca_map(loops))
    return [
        gep_offset(inst.pointer, leaf)[1]
        for inst in function.instructions()
        if isinstance(inst, Store) and inst.pointer.opcode == "gep"
    ]


def _codegen_offsets(function, loops):
    """The bounds proof's policy, as the outermost loop's chunk lowering
    leaves it: induction locals with an interval, chunk invariants."""
    (outer,) = [loop for loop in loops if loop.parent is None]
    lowering = _Lowering(outer)
    lowering.lower()
    return [
        gep_offset(inst.pointer, lowering._leaf, lowering.defined)[1]
        for block in lowering.blocks for inst in block.instructions
        if isinstance(inst, Store) and inst.pointer.opcode == "gep"
    ]


@pytest.fixture(params=[_analysis_offsets, _codegen_offsets],
                ids=["analysis", "codegen"])
def offsets_of_stores(request):
    def offsets(source):
        function = compile_source(source).function("main")
        return request.param(function, find_natural_loops(function))

    return offsets


class TestAffineExtraction:
    def test_direct_iv_index(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[8];\nfunc main() { for i in 0..8 { a[i] = 1; } }"
        )
        assert offset is not None
        assert offset.constant == 0
        assert list(offset.coefficients.values()) == [1]

    def test_linear_expression_index(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[64];\n"
            "func main() { for i in 0..8 { a[i * 4 + 3] = 1; } }"
        )
        assert offset.constant == 3
        assert list(offset.coefficients.values()) == [4]

    def test_literal_on_the_left_of_a_product(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[64];\n"
            "func main() { for i in 0..8 { a[4 * i + 3] = 1; } }"
        )
        assert offset.constant == 3
        assert list(offset.coefficients.values()) == [4]

    def test_two_level_index_combines_ivs(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[64];\n"
            "func main() { for i in 0..8 { for j in 0..8 {"
            " a[i * 8 + j] = 1; } } }"
        )
        assert sorted(offset.coefficients.values()) == [1, 8]

    def test_multidim_gep_strides(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global m: int[8][8];\n"
            "func main() { for i in 0..8 { for j in 0..8 {"
            " m[i][j] = 1; } } }"
        )
        assert sorted(offset.coefficients.values()) == [1, 8]

    def test_product_of_two_names_is_not_affine(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[64];\n"
            "func main() { for i in 0..8 { for j in 0..8 {"
            " a[i * j] = 1; } } }"
        )
        assert offset is None

    def test_indirect_index_is_not_affine(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[8];\nglobal k: int[8];\n"
            "func main() { for i in 0..8 { a[k[i]] = 1; } }"
        )
        assert offset is None

    def test_modulo_is_not_affine(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[8];\n"
            "func main() { for i in 0..64 { a[i % 8] = 1; } }"
        )
        assert offset is None

    def test_subtraction(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[16];\n"
            "func main() { for i in 0..8 { a[15 - i] = 1; } }"
        )
        assert offset.constant == 15
        assert list(offset.coefficients.values()) == [-1]

    def test_negation(self, offsets_of_stores):
        (offset,) = offsets_of_stores(
            "global a: int[16];\n"
            "func main() { for i in 0..8 { a[-i + 9] = 1; } }"
        )
        assert offset.constant == 9
        assert list(offset.coefficients.values()) == [-1]


def test_the_policies_name_the_same_variable_differently():
    """One form type, two kinds of name: an induction alloca for the
    dependence tests, the induction's local for the bounds proof."""
    source = "global a: int[8];\nfunc main() { for i in 0..8 { a[i] = 1; } }"
    function = compile_source(source).function("main")
    loops = find_natural_loops(function)
    (analysis,) = _analysis_offsets(function, loops)
    (codegen,) = _codegen_offsets(function, loops)
    assert list(analysis.coefficients) == [loops[0].canonical.induction]
    (name,) = codegen.coefficients
    assert isinstance(name, str) and name.isidentifier()


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
        assert expr.scale(-1).scale(-1).constant == expr.constant
        assert expr.scale(-1).coefficient(var) == -3

    @given(st.integers(-50, 50), st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-9, 9), st.integers(0, 9))
    def test_bound_is_the_extreme_over_the_box(self, c, a, b, low, width):
        """``bound`` is the min / max of the form over every point of a
        box of constant intervals, and ``None`` off the box."""
        box = {"x": (low, low + width), "y": (-low, -low + width)}
        expr = AffineExpr(c, {name: k for name, k in (("x", a), ("y", b))
                              if k})
        values = [
            c + a * x + b * y
            for x in range(box["x"][0], box["x"][1] + 1)
            for y in range(box["y"][0], box["y"][1] + 1)
        ]
        assert expr.bound(box, False) == min(values)
        assert expr.bound(box, True) == max(values)
        assert AffineExpr(c, {"z": 1}).bound(box, True) is None
