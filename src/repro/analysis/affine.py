"""Affine forms and intervals of int IR values, for dependence tests and
bounds proofs.

Both ask what an int value is as ``constant + sum_i coefficient_i *
x_i``, and differ only in what a name ``x_i`` is: the caller passes a
*leaf* function, ``leaf(value)`` -> the name ``value`` stands for, or
``None``.  :func:`affine_form` walks integer constants, ``neg``,
``add``, ``sub``, ``mul`` with a literal side and — through a
:func:`forwarded_store` — a load of a single-store local to the value
stored; anything else — an indirect index like ``key[i]``, ``%``, a
product of two names — is non-affine (``None``), and the reader falls
back to "may conflict" or to the guarded access, like a production
compiler.

* The dependence tests (``memdep``, ``deptests``, ``opt.legality``)
  name a load of a canonical induction alloca by its alloca
  (:func:`induction_leaf`): the runtime *value* of that loop's
  induction variable, ranging over its :func:`iteration_range`.
* Codegen's bounds proofs name an induction alias that has an interval,
  an int argument and a value defined outside the lowered body by their
  locals in the generated source, and in a proof that spells nothing
  any other int load by itself: it cannot change between a branch and
  its arm, so it cancels against the arm's condition.

A *box* maps a name, or a form's :meth:`AffineExpr.terms`, to its
``(lowest, highest)`` (``-inf``/``inf`` when open): an induction's from
its :func:`iteration_range`, a form's from an ``if`` arm's condition
(:func:`arm_box`).  :meth:`AffineExpr.bound` places a form in a box;
:func:`gep_offset` composes a ``gep`` chain into a slot offset.
"""

import dataclasses
import math

from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Compare,
    GetElementPtr,
    Load,
    Select,
    UnaryOp,
)
from repro.ir.values import Constant

#: Deeper than this, a value is not affine: bounds the walk's recursion.
_DEPTH = 12
#: ``c <predicate> form`` as ``form <mirrored> c``.
_MIRRORED = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq",
             "ne": "ne"}
_OPEN = (-math.inf, math.inf)


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

    def terms(self):
        """The key a box holds an interval of the form's terms under."""
        return frozenset(self.coefficients.items())

    def bound(self, box, highest):
        """The form's highest (or lowest) value over ``box``: the tighter
        of its names' intervals summed and its terms' own (infinite when
        neither bounds it)."""
        total = self.constant
        for name, factor in self.coefficients.items():
            total += factor * box.get(name, _OPEN)[(factor > 0) == highest]
        keyed = self.constant + box.get(self.terms(), _OPEN)[highest]
        return min(total, keyed) if highest else max(total, keyed)

    def __repr__(self):
        terms = [str(self.constant)]
        for var, coeff in self.coefficients.items():
            name = var if isinstance(var, str) else (
                var.var_name or f"%{var.uid}"
            )
            terms.append(f"{coeff}*{name}")
        return " + ".join(terms)


def affine_form(value, leaf, forward=None, depth=0):
    """``value`` as an :class:`AffineExpr` over the names ``leaf`` gives
    (the module docstring), or ``None`` when it is not affine.  A load
    ``forward`` (a record's, :func:`forwarded_store`) forwards is its
    store's value.

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
    store = forward and isinstance(value, Load) and forward(value)
    if store:
        return affine_form(store.value, leaf, forward, depth + 1)
    if isinstance(value, UnaryOp) and value.op == "neg":
        inner = affine_form(value.operand, leaf, forward, depth + 1)
        return inner and inner.scale(-1)
    if not (
        isinstance(value, BinaryOp) and value.op in ("add", "sub", "mul")
    ):
        return None
    lhs = affine_form(value.lhs, leaf, forward, depth + 1)
    rhs = affine_form(value.rhs, leaf, forward, depth + 1)
    if lhs is None or rhs is None:
        return None
    if value.op == "mul":
        if lhs.is_constant():
            return rhs.scale(lhs.constant)
        return lhs.scale(rhs.constant) if rhs.is_constant() else None
    return lhs.add(rhs.scale(-1) if value.op == "sub" else rhs)


def arm_box(box, condition, form):
    """``box`` narrowed by what holds in the true arm of a branch on
    ``condition``: a compare of an affine form (``form(value)``, the
    caller's :func:`affine_form`) with a constant bounds that form's
    terms, and ``&&``'s ``select(c1, c2, false)`` both of its compares.
    ``||``, ``ne`` and a non-constant bound say nothing."""
    narrowed = dict(box)
    pending = [condition]
    while pending:
        value = pending.pop()
        if isinstance(value, Select) and isinstance(
            value.if_false, Constant
        ) and value.if_false.value is False:
            pending += (value.condition, value.if_true)
        if not isinstance(value, Compare):
            continue
        lhs, rhs = form(value.lhs), form(value.rhs)
        predicate = value.predicate
        if lhs is not None and lhs.is_constant():
            lhs, rhs, predicate = rhs, lhs, _MIRRORED[predicate]
        if lhs is None or rhs is None or lhs.is_constant() or not (
            rhs.is_constant() and predicate != "ne"
        ):
            continue
        c = rhs.constant - lhs.constant
        low, high = {
            "lt": (-math.inf, c - 1), "le": (-math.inf, c),
            "gt": (c + 1, math.inf), "ge": (c, math.inf), "eq": (c, c),
        }[predicate]
        old_low, old_high = narrowed.get(lhs.terms(), _OPEN)
        narrowed[lhs.terms()] = (max(low, old_low), min(high, old_high))
    return narrowed


def iteration_range(loop):
    """The values ``loop``'s canonical induction takes, as a ``range``
    (ends: its interval; length: its trip count), when its bounds and
    its positive step are int constants; else ``None``."""
    meta = loop.canonical
    if meta is None:
        return None
    bounds = [
        value.value for value in (meta.lower, meta.upper, meta.step)
        if isinstance(value, Constant) and type(value.value) is int
    ]
    if len(bounds) != 3 or bounds[2] <= 0:
        return None
    return range(*bounds)


def forwarded_store(analyses, load):
    """The one store of a scalar local of the record's function that
    dominates ``load``, when every use of the local's alloca is as a
    load's or store's pointer (its address never escapes); else
    ``None``.  A canonical induction has two stores, its seed and its
    step.  The record's single-store scan runs on the first load of an
    alloca, and its dominator tree on the first that needs it; the
    record binds this as its ``forward(load)``."""
    if not isinstance(load.pointer, Alloca):
        return None
    store = analyses.single_stores.get(load.pointer)
    block = load.parent
    if store is None:
        return None
    if store.parent is block:
        order = block.instructions
        return store if order.index(store) < order.index(load) else None
    tree = analyses.dominators
    if tree.contains(block) and tree.contains(store.parent) and (
        tree.dominates(store.parent, block)
    ):
        return store
    return None


def single_stores(function, users):
    """Alloca -> its one store, for the allocas of ``function`` stored
    once and used only as a load's or store's pointer; ``users`` is the
    record's :func:`~repro.analysis.cfg.operand_users`."""
    stores = {}
    for block in function.blocks:
        for inst in block.instructions:
            if inst.opcode != "alloca":
                continue
            found = []
            for user in users.get(id(inst), ()):
                if user.opcode == "store" and user.operands[0] is not inst:
                    found.append(user)
                elif user.opcode != "load":
                    break  # its address escapes
            else:
                if len(found) == 1:
                    stores[inst] = found[0]
    return stores


def gep_offset(pointer, leaf, defined=None, forward=None):
    """``(root, offset)``: the value ``pointer``'s ``gep`` chain starts
    from, and the slot offset into it as an :class:`AffineExpr` over
    ``leaf``'s names (``None`` when an index is not affine).  Given
    ``defined``, a set of ids, a gep outside it is a root too.  Every
    index is walked, even behind a non-affine one."""
    offset = AffineExpr.const(0)
    while isinstance(pointer, GetElementPtr) and (
        defined is None or id(pointer) in defined
    ):
        index = affine_form(pointer.index, leaf, forward)
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
