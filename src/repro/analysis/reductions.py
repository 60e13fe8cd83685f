"""Reduction semantics: the operator table, the update recognizer, the seed.

Everything that treats ``x = x op e`` as a reduction asks this module:
the planner's recipes (:func:`update_op` on an object's in-loop
accesses), the sequential analysis record (:func:`find_scalar_reductions`)
and the runtime, which seeds each worker's copy with
:func:`identity_slots` and merges the copies with the operator's
``merge`` from :data:`REDUCIBLE_OPS`.

A PDG-based automatic parallelizer (NOELLE's DOALL does this) can break the
loop-carried cycle of ``sum = sum op expr`` when it proves that the scalar
is only used by a single commutative-associative update chain inside the
loop.  We implement the same recognition so that the *PDG baseline* in the
evaluation is not artificially weak: the PS-PDG's advantage must come from
semantics a sequential analysis cannot recover (criticals, privatization of
conditionally-written arrays, orderless sections...), not from us refusing
the PDG a standard technique.
"""

import dataclasses
import operator

from repro.ir.instructions import BinaryOp, GetElementPtr, Load, Store
from repro.ir.types import FLOAT
from repro.ir.values import Constant
from repro.util.errors import PlanError

#: Commutative, associative operator -> (merge of two partial values,
#: two-sided identity).
REDUCIBLE_OPS = {
    "add": (operator.add, 0),
    "mul": (operator.mul, 1),
    "min": (min, float("inf")),
    "max": (max, float("-inf")),
    "and": (operator.and_, -1),
    "or": (operator.or_, 0),
    "xor": (operator.xor, 0),
}


def identity_slots(value_type, op):
    """A per-worker copy of a ``value_type`` object reduced by ``op``:
    every slot holds the operator's identity, as a float when the
    object's elements are floats."""
    if op not in REDUCIBLE_OPS:
        raise PlanError(f"no identity for reduction op {op!r}")
    identity = REDUCIBLE_OPS[op][1]
    scalar = value_type
    while hasattr(scalar, "element"):
        scalar = scalar.element
    if scalar == FLOAT:
        identity = float(identity)
    return [identity] * value_type.slots()


@dataclasses.dataclass
class ScalarReduction:
    """A recognized reduction of one scalar object within one loop."""

    obj: object
    op: str

    def __repr__(self):
        return f"<reduction {self.op} on {self.obj!r}>"


def update_op(accesses):
    """The one reducible op of an object's in-loop ``accesses``, or None.

    Every access must be a load or a store, and every store an update
    ``p[idx] = p[idx] op expr`` (either operand order) of one reducible
    op: the loaded slot is the stored one, load and store share a basic
    block (each update is atomic with respect to control flow within the
    iteration), ``expr`` does not depend on the load, and every load
    feeds such an update.  The updates commute across iterations, so
    per-worker identity-seeded copies merged at the join preserve the
    sequential result.  Conditional updates (``if (...) sum += e``)
    qualify: skipping an update is merging the identity.
    """
    loads = {
        a.instruction for a in accesses if isinstance(a.instruction, Load)
    }
    stores = [
        a.instruction for a in accesses if isinstance(a.instruction, Store)
    ]
    if not stores or len(loads) + len(stores) != len(accesses):
        return None  # a call (or unknown access) touches the object
    ops = set()
    matched = set()
    for store in stores:
        update = store.value
        if not isinstance(update, BinaryOp) or update.op not in REDUCIBLE_OPS:
            return None
        for load, other in (
            (update.lhs, update.rhs), (update.rhs, update.lhs)
        ):
            if load in loads and _same_pointer(load.pointer, store.pointer):
                break
        else:
            return None
        if load.parent is not store.parent or _depends_on(other, load):
            return None
        ops.add(update.op)
        matched.add(load)
    if matched != loads or len(ops) != 1:
        return None
    return ops.pop()


def find_scalar_reductions(analyses, loop):
    """Reductions of scalar objects recognizable inside ``loop``: one
    load, one store, and :func:`update_op` between them.

    ``analyses`` is the function's analysis record; it memoizes this
    query as ``analyses.scalar_reductions(loop)``.
    """
    reductions = []
    for obj, group in analyses.loop_accesses(loop).items():
        if obj.is_scalar() and len(group) == 2:
            op = update_op(group)
            if op is not None:
                reductions.append(ScalarReduction(obj, op))
    return reductions


def _same_pointer(a, b):
    """Symbolically the same address within one iteration.

    Loads and stores of ``p[k] = p[k] op e`` go through *distinct* GEP
    instructions; they denote the same slot when their base and index
    chains are the same SSA values (or equal constants).
    """
    if a is b:
        return True
    if isinstance(a, GetElementPtr) and isinstance(b, GetElementPtr):
        return _same_pointer(a.pointer, b.pointer) and _same_index(
            a.index, b.index
        )
    return False


def _same_index(a, b):
    """Same index value: one SSA value, equal constants, or re-loads of
    one address with no store in between (lowering re-evaluates ``k`` for
    each subscript of ``p[k] = p[k] op e``)."""
    if a is b:
        return True
    if isinstance(a, Constant) and isinstance(b, Constant):
        return a.value == b.value
    if (
        isinstance(a, Load)
        and isinstance(b, Load)
        and a.parent is b.parent
        and _same_pointer(a.pointer, b.pointer)
    ):
        span = []
        seen_first = False
        for inst in a.parent.instructions:
            if inst is a or inst is b:
                if seen_first:
                    break
                seen_first = True
            elif seen_first:
                span.append(inst)
        return not any(
            isinstance(inst, Store) and _same_pointer(inst.pointer, a.pointer)
            for inst in span
        )
    return False


def _depends_on(value, target, _seen=None):
    """Transitive register dependence of ``value`` on ``target``."""
    if _seen is None:
        _seen = set()
    if value is target:
        return True
    if id(value) in _seen or not hasattr(value, "operands"):
        return False
    _seen.add(id(value))
    return any(_depends_on(op, target, _seen) for op in value.operands)
