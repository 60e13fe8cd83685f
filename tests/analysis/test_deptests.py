"""Dependence tests: ZIV, strong SIV (with a brute-force oracle), trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.deptests import test_level as siv_test
from repro.analysis.record import FunctionAnalyses
from repro.analysis.affine import AffineExpr, iteration_range
from repro.frontend import compile_source


def loop_for(source):
    module = compile_source(source)
    return FunctionAnalyses(module.function("main"), module).loops[0]


SIMPLE = "func main() { for i in 0..10 { } }"


class TestTripCounts:
    def test_constant_trip_count(self):
        assert len(iteration_range(loop_for(SIMPLE))) == 10

    def test_trip_count_with_step(self):
        loop = loop_for("func main() { for i in 0..10 step 3 { } }")
        space = iteration_range(loop)
        assert len(space) == 4
        # The interval ends at the last value taken, not at upper - step.
        assert (space[0], space[-1]) == (0, 9)

    def test_empty_range(self):
        loop = loop_for("func main() { for i in 5..5 { } }")
        assert len(iteration_range(loop)) == 0

    def test_unknown_trip_count(self):
        loop = loop_for(
            "func main() { var n: int = 3; for i in 0..n { } }"
        )
        assert iteration_range(loop) is None

    def test_while_loop_has_no_trip_count(self):
        loop = loop_for(
            "func main() { var x: int = 0; while (x < 5) { x = x + 1; } }"
        )
        assert iteration_range(loop) is None


class TestZIV:
    def test_equal_constants_conflict(self):
        loop = loop_for(SIMPLE)
        result = siv_test(AffineExpr.const(3), AffineExpr.const(3), loop, {})
        assert result.intra and result.carried_forward and result.exact

    def test_distinct_constants_never_conflict(self):
        loop = loop_for(SIMPLE)
        result = siv_test(AffineExpr.const(3), AffineExpr.const(4), loop, {})
        assert not result.intra
        assert not result.carried_forward
        assert not result.carried_backward


class TestStrongSIV:
    def _iv(self, loop):
        return loop.canonical.induction

    def test_same_subscript_intra_only(self):
        loop = loop_for(SIMPLE)
        iv = self._iv(loop)
        a = AffineExpr(0, {iv: 1})
        result = siv_test(a, a, loop, {})
        assert result.intra
        assert not result.carried_forward and not result.carried_backward

    def test_distance_one_is_carried_forward(self):
        loop = loop_for(SIMPLE)
        iv = self._iv(loop)
        write = AffineExpr(1, {iv: 1})  # a[i+1]
        read = AffineExpr(0, {iv: 1})  # a[i]
        result = siv_test(write, read, loop, {})
        assert result.carried_forward and not result.intra

    def test_distance_exceeding_range_excluded(self):
        loop = loop_for(SIMPLE)
        iv = self._iv(loop)
        write = AffineExpr(100, {iv: 1})
        read = AffineExpr(0, {iv: 1})
        result = siv_test(write, read, loop, {})
        assert not (result.intra or result.carried_forward
                    or result.carried_backward)

    def test_fractional_distance_excluded(self):
        loop = loop_for(SIMPLE)
        iv = self._iv(loop)
        write = AffineExpr(1, {iv: 2})  # 2i + 1 (odd)
        read = AffineExpr(0, {iv: 2})  # 2i (even)
        result = siv_test(write, read, loop, {})
        assert not (result.intra or result.carried_forward
                    or result.carried_backward)

    def test_non_affine_is_conservative(self):
        loop = loop_for(SIMPLE)
        result = siv_test(None, AffineExpr.const(0), loop, {})
        assert result.intra and result.carried_forward
        assert not result.exact

    @given(
        coeff=st.integers(1, 4),
        c1=st.integers(-8, 8),
        c2=st.integers(-8, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_strong_siv_matches_bruteforce(self, coeff, c1, c2):
        loop = loop_for(SIMPLE)  # iv range 0..10 step 1
        iv = self._iv(loop)
        f = AffineExpr(c1, {iv: coeff})
        g = AffineExpr(c2, {iv: coeff})
        result = siv_test(f, g, loop, {})

        intra = any(
            coeff * t + c1 == coeff * t + c2 for t in range(10)
        )
        forward = any(
            coeff * t1 + c1 == coeff * t2 + c2
            for t1 in range(10)
            for t2 in range(t1 + 1, 10)
        )
        backward = any(
            coeff * t1 + c1 == coeff * t2 + c2
            for t1 in range(10)
            for t2 in range(0, t1)
        )
        # The implemented test may be conservative but must never claim
        # "no dependence" when one exists.
        assert result.intra or not intra
        assert result.carried_forward or not forward
        assert result.carried_backward or not backward
        if result.exact:
            assert result.intra == intra
            assert result.carried_forward == forward
            assert result.carried_backward == backward


class TestInnerVariantLevels:
    def test_disjoint_tiles_not_carried(self):
        # offset = 16*plane + j with j in 0..16: distinct planes touch
        # distinct tiles -> no carried dependence at the plane loop.
        module = compile_source(
            "global a: int[256];\n"
            "func main() { for p in 0..16 { for j in 0..16 {"
            " a[p * 16 + j] = 1; } } }"
        )
        loops = FunctionAnalyses(module.function("main"), module).loops
        outer = next(l for l in loops if l.parent is None)
        inner = next(l for l in loops if l.parent is not None)
        piv = outer.canonical.induction
        jiv = inner.canonical.induction
        offset = AffineExpr(0, {piv: 16, jiv: 1})
        result = siv_test(offset, offset, outer, {jiv: inner})
        assert result.intra
        assert not result.carried_forward

    def test_overlapping_tiles_carried(self):
        # offset = 8*plane + j with j in 0..16: tiles overlap by 8.
        module = compile_source(
            "global a: int[256];\n"
            "func main() { for p in 0..16 { for j in 0..16 {"
            " a[p * 8 + j] = 1; } } }"
        )
        loops = FunctionAnalyses(module.function("main"), module).loops
        outer = next(l for l in loops if l.parent is None)
        inner = next(l for l in loops if l.parent is not None)
        piv = outer.canonical.induction
        jiv = inner.canonical.induction
        offset = AffineExpr(0, {piv: 8, jiv: 1})
        result = siv_test(offset, offset, outer, {jiv: inner})
        assert result.carried_forward
