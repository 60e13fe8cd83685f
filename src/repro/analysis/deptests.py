"""Classic data-dependence tests over affine subscript pairs.

Given two accesses to the same object with affine offsets, decide whether
they can touch the same slot (a) in the same iteration of a given loop and
(b) across different iterations — and, when the distance is determinate, in
which direction.  Implements the standard ZIV and strong-SIV tests plus a
GCD feasibility check; everything else conservatively reports "may".

Terminology follows Allen & Kennedy: for loop L with induction variable t,
subscripts f(t) = a*t + c1 and g(t) = a*t + c2 (strong SIV) conflict exactly
when the *iv-space distance* d = (c1 - c2) / a is an integer, lies within
the loop's iteration range, and is a multiple of the step.
"""

import dataclasses
import math

from repro.analysis.affine import AffineExpr, iteration_range


@dataclasses.dataclass
class LevelDependence:
    """Outcome of testing one pair of accesses at one loop level.

    Attributes:
        intra: the accesses may conflict within a single iteration.
        carried_forward: first access (earlier iteration) may conflict with
            the second access in a later iteration.
        carried_backward: conflict with roles swapped (second access's
            iteration earlier).
        exact: True when the result came from a determinate test rather
            than a conservative fallback.
    """

    intra: bool
    carried_forward: bool
    carried_backward: bool
    exact: bool

    @staticmethod
    def conservative():
        return LevelDependence(True, True, True, False)

    @staticmethod
    def none():
        return LevelDependence(False, False, False, True)


def test_level(offset_a, offset_b, loop, inner_ivs):
    """Dependence test between two affine offsets at loop ``loop``.

    ``offset_a``/``offset_b`` are :class:`AffineExpr` (or None for
    non-affine, which yields the conservative answer).  ``inner_ivs`` is the
    set of induction allocas of loops *nested inside* ``loop`` that enclose
    either access: these take independent values between the two accesses,
    so any unequal-coefficient term over them forces a conservative answer,
    and equal coefficients still leave the term free (different inner
    iterations), not cancelled.

    Induction variables of loops *outside* ``loop`` take equal values on
    both sides and cancel when coefficients match.
    """
    if offset_a is None or offset_b is None:
        return LevelDependence.conservative()
    if loop.canonical is None:
        return LevelDependence.conservative()

    iv = loop.canonical.induction
    coeff_a = offset_a.coefficient(iv)
    coeff_b = offset_b.coefficient(iv)

    # Terms over inner-loop ivs do not cancel: both sides range freely.
    # a's names, then b's, in insertion order: the loop returns early,
    # so its order must not follow the names' addresses.
    for var in {**offset_a.coefficients, **offset_b.coefficients}:
        if var is iv:
            continue
        if var in inner_ivs:
            if offset_a.coefficient(var) != 0 or offset_b.coefficient(var) != 0:
                return _inner_variant_test(offset_a, offset_b, loop, inner_ivs)
        else:
            # Outer-loop iv: equal on both sides; cancels only when the
            # coefficients match.
            if offset_a.coefficient(var) != offset_b.coefficient(var):
                return LevelDependence.conservative()

    delta = offset_a.constant - offset_b.constant

    if coeff_a == 0 and coeff_b == 0:
        # ZIV: offsets do not involve this loop's iv.
        if delta == 0:
            return LevelDependence(True, True, True, True)
        return LevelDependence.none()

    if coeff_a == coeff_b:
        # Strong SIV: a*t1 + c1 == a*t2 + c2  =>  t2 - t1 == delta / a.
        a = coeff_a
        if delta % a != 0:
            return LevelDependence.none()
        distance = delta // a  # iv-space distance t2 - t1
        space = iteration_range(loop)
        if space is not None and (
            abs(distance) >= space.stop - space.start >= 0
            or distance % space.step
        ):
            return LevelDependence.none()
        if distance == 0:
            return LevelDependence(True, False, False, True)
        if distance > 0:
            # A's iteration is earlier: forward-carried A -> B.
            return LevelDependence(False, True, False, True)
        return LevelDependence(False, False, True, True)

    # Weak SIV / MIV with differing coefficients: GCD feasibility check.
    gcd = math.gcd(abs(coeff_a), abs(coeff_b))
    if gcd and delta % gcd != 0:
        return LevelDependence.none()
    return LevelDependence.conservative()


#: Widest level-loop span the variant test enumerates exactly; beyond
#: it the interval approximation below answers instead.
_VARIANT_SEARCH_CAP = 4096


def _inner_variant_test(offset_a, offset_b, loop, inner_ivs):
    """Fallback when inner-loop iv terms are present.

    With this loop's own iv at equal nonzero coefficients ``a`` on both
    sides, a conflict at iv-space distance ``d`` needs the *non-level*
    part of ``offset_a - offset_b`` to equal ``a*d``.  Each bounded
    inner-iv term contributes its lower-bound value once plus multiples
    of ``coeff*step``, so the reachable non-level values are a constant
    plus multiples of the gcd of those step terms, clipped to an
    interval.  That stride matters: a row-major nest subscript
    ``N*t + i`` reaches only multiples of ``N`` across ``t``, which can
    never equal the small ``a*d`` an inner-carried conflict would need —
    the interval alone cannot see this and used to reject every perfect
    nest.  Bounding requires static ranges for every inner iv; otherwise
    answer conservatively.  An outer iv's terms cancel when their
    coefficients match and answer conservatively when they do not.
    """
    iv = loop.canonical.induction
    coeff = offset_a.coefficient(iv)
    if coeff == 0 or coeff != offset_b.coefficient(iv):
        return LevelDependence.conservative()

    # The non-level part of (offset_a - offset_b), each side's inner
    # ivs names of their own over their iteration ranges: its interval,
    # and the stride its inner-iv terms move in.
    terms, box, stride = {}, {}, 0
    for side, offset in ((1, offset_a), (-1, offset_b)):
        for var, term_coeff in offset.coefficients.items():
            if var is iv:
                continue
            if var not in inner_ivs:
                # An outer induction, equal on both sides: it cancels
                # when its coefficients match, as in ``test_level``.
                if offset_a.coefficient(var) != offset_b.coefficient(var):
                    return LevelDependence.conservative()
                continue
            space = iteration_range(inner_ivs[var])
            if space is None:
                return LevelDependence.conservative()
            if space:
                terms[var, side] = side * term_coeff
                box[var, side] = (space[0], space[-1])
                if len(space) > 1:
                    stride = math.gcd(stride, abs(term_coeff * space.step))
    rest = AffineExpr(offset_a.constant - offset_b.constant, terms)
    low, high = rest.bound(box, False), rest.bound(box, True)

    def feasible(distance):
        value = coeff * distance
        if not low <= value <= high:
            return False
        return (value - low) % stride == 0 if stride else value == low

    level = iteration_range(loop)
    if level is not None:
        span = max(level.stop - level.start, 0)
        if span // level.step <= _VARIANT_SEARCH_CAP:
            distances = range(level.step, span, level.step)
            return LevelDependence(
                feasible(0),
                any(feasible(d) for d in distances),
                any(feasible(-d) for d in distances),
                True,
            )

    # Level loop unbounded (or too wide to enumerate): interval-only
    # approximation over the folded range, as before.
    intra = low <= 0 <= high
    carried_forward = high >= coeff if coeff > 0 else low <= coeff
    carried_backward = low <= -coeff if coeff > 0 else high >= -coeff
    if max(abs(low), abs(high)) >= abs(coeff):
        carried_forward = carried_forward or high > 0
        carried_backward = carried_backward or low < 0
    return LevelDependence(intra, carried_forward, carried_backward, True)
