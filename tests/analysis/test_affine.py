"""Affine forms: extraction under both leaf policies, and the algebra."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.affine import (
    AffineExpr,
    affine_form,
    arm_box,
    gep_offset,
    induction_leaf,
)
from repro.analysis.record import FunctionAnalyses
from repro.codegen.lower import _Lowering
from repro.frontend import compile_source
from repro.ir.instructions import Branch, Load, Store
from support.ir_parser import parse_ir


def _analysis_policy(analyses):
    """The dependence tests' policy: loads of canonical inductions, and
    single-store locals read through.  ``(form, scanned instructions)``."""
    leaf = induction_leaf({
        loop.canonical.induction
        for loop in analyses.loops if loop.canonical
    })
    forward = analyses.forward
    return (
        lambda value: affine_form(value, leaf, forward),
        lambda pointer: gep_offset(pointer, leaf, None, forward)[1],
        list(analyses.function.instructions()),
    )


def _codegen_policy(analyses):
    """The bounds proof's policy, as the outermost loop's chunk lowering
    leaves it: induction locals with an interval, chunk invariants, and
    single-store locals the body stores read through."""
    (outer,) = [loop for loop in analyses.loops if loop.parent is None]
    lowering = _Lowering(analyses, outer)
    lowering.lower()
    return (
        lambda value: affine_form(value, lowering._leaf, lowering._forward),
        lambda pointer: gep_offset(
            pointer, lowering._leaf, lowering.defined, lowering._forward
        )[1],
        [inst for block in lowering.blocks for inst in block.instructions],
    )


def _analysis_offsets(analyses):
    _form, offset, scanned = _analysis_policy(analyses)
    return _store_offsets(offset, scanned)


def _codegen_offsets(analyses):
    _form, offset, scanned = _codegen_policy(analyses)
    return _store_offsets(offset, scanned)


def _store_offsets(offset, scanned):
    return [
        offset(inst.pointer) for inst in scanned
        if isinstance(inst, Store) and inst.pointer.opcode == "gep"
    ]


@pytest.fixture(params=[_analysis_policy, _codegen_policy],
                ids=["analysis", "codegen"])
def policy(request):
    def applied(source):
        module = compile_source(source)
        return request.param(FunctionAnalyses(module.function("main"), module))

    return applied


@pytest.fixture
def offsets_of_stores(policy):
    def offsets(source):
        _form, offset, scanned = policy(source)
        return _store_offsets(offset, scanned)

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


#: LU's wavefront body, alone: ``j`` is ``k - i``, stored once.
MINI_LU = """
global u: float[20][20];
func main() {
  for k in 2..38 {
    for i in 1..19 {
      var j: int = k - i;
      if (%s) {
        u[i][j] = 1.0;
      }
    }
  }
}
"""


class TestForwardSubstitution:
    def test_lus_j_reads_as_k_minus_i(self, policy):
        form, offset, scanned = policy(MINI_LU % "j >= 1 && j < 19")
        (store,) = [inst for inst in scanned if isinstance(inst, Store)
                    and inst.pointer.opcode == "gep"]
        # u[i][j]: 20 * i + (k - i).
        assert sorted(offset(store.pointer).coefficients.values()) == [1, 19]
        (j,) = [inst for inst in scanned if isinstance(inst, Load)
                and inst.pointer.var_name == "j"][-1:]
        assert sorted(form(j).coefficients.values()) == [-1, 1]
        assert form(j).constant == 0

    @pytest.mark.parametrize("body", [
        # Two stores.
        "var j: int = i; j = i + 1; a[j] = 1;",
        # A store in one arm only.
        "var j: int; if (i > 2) { j = i; } a[j] = 1;",
        # A load before the store in the same iteration.
        "var j: int; a[j] = 1; j = i;",
        # The address reaches a gep: the local is read through it.
        "var j: int[1]; j[0] = i; a[j[0]] = 1;",
    ], ids=["two-stores", "one-arm", "load-first", "through-a-gep"])
    def test_a_local_that_fails_a_condition_stays_opaque(
        self, offsets_of_stores, body
    ):
        source = (
            "global a: int[16];\n"
            f"func main() {{ for i in 0..8 {{ {body} }} }}"
        )
        assert offsets_of_stores(source)[-1] is None

    def test_an_address_passed_to_a_call_is_not_forwarded(self):
        module = parse_ir(
            "func @g(%p: int*) -> void {\n"
            "entry:\n"
            "  store 5, %p\n"
            "  return\n"
            "}\n"
            "func @main() -> int {\n"
            "entry:\n"
            "  %0 = alloca int ; j\n"
            "  store 3, %0\n"
            "  call @g(%0)\n"
            "  %3 = load %0\n"
            "  return %3\n"
            "}\n"
        )
        function = module.function("main")
        (load,) = [inst for inst in function.instructions()
                   if isinstance(inst, Load)]
        assert FunctionAnalyses(function, module).forward(load) is None
        # Without the call the one store forwards (a new record: the IR
        # changed under the old one).
        call = function.entry.instructions[2]
        function.entry.instructions.remove(call)
        forward = FunctionAnalyses(function, module).forward
        assert forward(load).value.value == 3


def _arm_box(policy, source):
    """The box the true arm of ``source``'s one ``if`` learns."""
    form, _offset, scanned = policy(source)
    (branch,) = [
        inst for inst in scanned if isinstance(inst, Branch)
        and not inst.parent.name.startswith("for.header")
    ]
    return arm_box({}, branch.condition, form)


class TestArmIntervals:
    def test_and_narrows_the_true_arm(self, policy):
        box = _arm_box(policy, MINI_LU % "j >= 1 && j < 19")
        # The form k - i, under its two names.
        ((key, interval),) = box.items()
        assert isinstance(key, frozenset) and interval == (1, 18)

    def test_a_constant_on_the_left_mirrors(self, policy):
        box = _arm_box(policy, MINI_LU % "3 < i && i <= 9")
        assert list(box.values()) == [(4, 9)]

    @pytest.mark.parametrize("condition", [
        "j >= 1 || j < 19", "j != 4", "j < k", "float(j) < 3.0",
    ], ids=["or", "ne", "non-constant-bound", "float"])
    def test_other_conditions_say_nothing(self, policy, condition):
        assert _arm_box(policy, MINI_LU % condition) == {}

    def test_the_arm_box_bounds_a_form_by_its_terms(self):
        box = {"i": (1, 18), "k": (2, 37),
               frozenset({("k", 1), ("i", -1)}): (1, 18)}
        j_minus_1 = AffineExpr(-1, {"k": 1, "i": -1})
        assert (j_minus_1.bound(box, False), j_minus_1.bound(box, True)) \
            == (0, 17)
        # Without the terms' own interval, the names' box is all there is.
        del box[frozenset({("k", 1), ("i", -1)})]
        assert j_minus_1.bound(box, False) == 2 - 18 - 1


def test_the_policies_name_the_same_variable_differently():
    """One form type, two kinds of name: an induction alloca for the
    dependence tests, the induction's local for the bounds proof."""
    source = "global a: int[8];\nfunc main() { for i in 0..8 { a[i] = 1; } }"
    module = compile_source(source)
    analyses = FunctionAnalyses(module.function("main"), module)
    (analysis,) = _analysis_offsets(analyses)
    (codegen,) = _codegen_offsets(analyses)
    assert list(analysis.coefficients) == [
        analyses.loops[0].canonical.induction
    ]
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
        box of constant intervals, and infinite off the box."""
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
        assert AffineExpr(c, {"z": 1}).bound(box, True) == math.inf
