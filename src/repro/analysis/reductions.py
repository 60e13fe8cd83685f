"""Sequential scalar-reduction recognition.

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

from repro.ir.instructions import BinaryOp, Load, Store

# Commutative, associative operators with a two-sided identity.
REDUCIBLE_OPS = {
    "add": {"int": 0, "float": 0.0},
    "mul": {"int": 1, "float": 1.0},
    "min": {"int": None, "float": float("inf")},
    "max": {"int": None, "float": float("-inf")},
    "and": {"int": -1},
    "or": {"int": 0},
    "xor": {"int": 0},
}


@dataclasses.dataclass
class ScalarReduction:
    """A recognized reduction of one scalar object within one loop."""

    obj: object
    op: str
    load: object
    store: object

    def identity_value(self, type_name):
        return REDUCIBLE_OPS[self.op].get(type_name)

    def __repr__(self):
        return f"<reduction {self.op} on {self.obj!r}>"


def find_scalar_reductions(analyses, loop):
    """Reductions of scalar objects recognizable inside ``loop``.

    ``analyses`` is the function's analysis record; it memoizes this
    query as ``analyses.scalar_reductions(loop)``.

    The pattern required, for object ``O``:

    * every access to ``O`` inside the loop is either one specific ``load``
      or one specific ``store`` (no calls touching ``O``),
    * the store's value is ``BinaryOp(op, load_result, x)`` (either operand
      order) with a reducible ``op``,
    * ``x`` does not (transitively, through registers) depend on the load,
    * load and store are in the same basic block, so each update is atomic
      with respect to control flow within the iteration.

    Conditional updates (``if (...) sum += e``) qualify: skipping an update
    is equivalent to merging the identity.
    """
    reductions = []
    for obj, group in analyses.loop_accesses(loop).items():
        if not obj.is_scalar():
            continue
        loads = [a for a in group if isinstance(a.instruction, Load)]
        stores = [a for a in group if isinstance(a.instruction, Store)]
        if len(loads) != 1 or len(stores) != 1:
            continue
        if len(group) != 2:
            continue  # extra accesses (e.g. a call touching the object)
        load = loads[0].instruction
        store = stores[0].instruction
        if load.parent is not store.parent:
            continue
        update = store.value
        if not isinstance(update, BinaryOp) or update.op not in REDUCIBLE_OPS:
            continue
        if update.lhs is load:
            other = update.rhs
        elif update.rhs is load:
            other = update.lhs
        else:
            continue
        if _depends_on(other, load):
            continue
        reductions.append(ScalarReduction(obj, update.op, load, store))
    return reductions


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
