"""Affine forms of int IR values, for dependence tests and bounds proofs.

Both ask what an int value is as ``constant + sum_i coefficient_i *
x_i``, and differ only in what a name ``x_i`` is: the caller passes a
*leaf* function, ``leaf(value)`` -> the name ``value`` stands for, or
``None``.  :func:`affine_form` walks integer constants, ``neg``,
``add``, ``sub`` and ``mul`` with a literal side; anything else — an
indirect index like ``key[i]``, ``%``, a product of two names — is
non-affine (``None``), and the reader falls back to "may conflict" or
to the guarded access, like a production compiler.

* The dependence tests (``memdep``, ``deptests``, ``opt.legality``)
  name a load of a canonical induction alloca by its alloca
  (:func:`induction_leaf`): the runtime *value* of that loop's
  induction variable, whose lower bound and step the tests account for.
* Codegen's bounds proofs name an induction alias that has an interval,
  an int argument and a value defined outside the lowered body by their
  locals in the generated source; :meth:`AffineExpr.bound` places a form
  in a box of constant intervals.

:func:`gep_offset` composes a ``gep`` chain into a slot offset.
"""

import dataclasses

from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    GetElementPtr,
    Load,
    UnaryOp,
)
from repro.ir.values import Constant

#: Deeper than this, a value is not affine: bounds the walk's recursion.
_DEPTH = 12


@dataclasses.dataclass
class AffineExpr:
    """``constant + sum(coefficients[name] * name)`` over int names."""

    constant: int
    coefficients: dict  # name -> int coefficient (zero entries removed)

    @staticmethod
    def const(value):
        return AffineExpr(int(value), {})

    def add(self, other):
        coeffs = dict(self.coefficients)
        for var, coeff in other.coefficients.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
            if coeffs[var] == 0:
                del coeffs[var]
        return AffineExpr(self.constant + other.constant, coeffs)

    def scale(self, factor):
        factor = int(factor)
        if factor == 0:
            return AffineExpr.const(0)
        return AffineExpr(
            self.constant * factor,
            {var: coeff * factor for var, coeff in self.coefficients.items()},
        )

    def coefficient(self, name):
        return self.coefficients.get(name, 0)

    def is_constant(self):
        return not self.coefficients

    def bound(self, box, highest):
        """The form's highest (or lowest) value over ``box``, a map of
        name -> ``(lowest, highest)`` ints; ``None`` when a name has no
        interval there."""
        total = self.constant
        for name, factor in self.coefficients.items():
            ends = box.get(name)
            if ends is None:
                return None
            total += factor * ends[(factor > 0) == highest]
        return total

    def __repr__(self):
        terms = [str(self.constant)]
        for var, coeff in self.coefficients.items():
            name = var if isinstance(var, str) else (
                var.var_name or f"%{var.uid}"
            )
            terms.append(f"{coeff}*{name}")
        return " + ".join(terms)


def affine_form(value, leaf, depth=0):
    """``value`` as an :class:`AffineExpr` over the names ``leaf`` gives
    (the module docstring), or ``None`` when it is not affine.

    Both operands of an operator are walked before either is judged, so
    a ``leaf`` that records what it names sees every leaf of the value.
    """
    if isinstance(value, Constant):
        return AffineExpr(value.value, {}) if type(value.value) is int \
            else None
    if depth > _DEPTH:
        return None
    name = leaf(value)
    if name is not None:
        return AffineExpr(0, {name: 1})
    if isinstance(value, UnaryOp) and value.op == "neg":
        inner = affine_form(value.operand, leaf, depth + 1)
        return inner and inner.scale(-1)
    if not (
        isinstance(value, BinaryOp) and value.op in ("add", "sub", "mul")
    ):
        return None
    lhs = affine_form(value.lhs, leaf, depth + 1)
    rhs = affine_form(value.rhs, leaf, depth + 1)
    if lhs is None or rhs is None:
        return None
    if value.op == "mul":
        if lhs.is_constant():
            return rhs.scale(lhs.constant)
        return lhs.scale(rhs.constant) if rhs.is_constant() else None
    return lhs.add(rhs.scale(-1) if value.op == "sub" else rhs)


def gep_offset(pointer, leaf, defined=None):
    """``(root, offset)``: the value ``pointer``'s ``gep`` chain starts
    from, and the slot offset into it as an :class:`AffineExpr` over
    ``leaf``'s names (``None`` when an index is not affine).  Given
    ``defined``, a set of ids, a gep outside it is a root too.  Every
    index is walked, even behind a non-affine one."""
    offset = AffineExpr.const(0)
    while isinstance(pointer, GetElementPtr) and (
        defined is None or id(pointer) in defined
    ):
        index = affine_form(pointer.index, leaf)
        if offset is not None and index is not None:
            stride = pointer.pointer.type.pointee.element.slots()
            offset = offset.add(index.scale(stride))
        else:
            offset = None
        pointer = pointer.pointer
    return pointer, offset


def induction_leaf(induction_allocas):
    """The dependence tests' leaf: a load of one of
    ``induction_allocas`` is named by its alloca."""

    def leaf(value):
        if isinstance(value, Load):
            pointer = value.pointer
            if isinstance(pointer, Alloca) and pointer in induction_allocas:
                return pointer
        return None

    return leaf


def induction_alloca_map(loops):
    """Map induction alloca -> loop, for loops with canonical metadata."""
    mapping = {}
    for loop in loops:
        if loop.canonical is not None:
            mapping[loop.canonical.induction] = loop
    return mapping
