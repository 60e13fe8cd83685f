"""Sequential scalar-privatization analysis.

A scalar object can be privatized per-iteration (breaking its WAR/WAW and
spurious RAW loop-carried dependences) when every read of it inside the
loop observes a value written *earlier in the same iteration* and the
object is dead after the loop.  This is standard automatic-parallelizer
machinery (NOELLE provides it), so both the PDG baseline and the PS-PDG
planner get it; the PS-PDG's advantage must come from declared semantics,
not from withholding textbook analyses from the baseline.

The sufficient condition implemented (conservative, documented):

* the object is a scalar alloca;
* no call inside the loop touches it;
* every load inside the loop is preceded (same block) or dominated by a
  store to it that is also inside the loop;
* the object is not live-out of the loop (no reads after the loop exits).
"""

from repro.ir.instructions import Load, Store


def sequentially_privatizable_objects(analyses, loop):
    """Objects a sequential compiler may privatize per iteration of ``loop``.

    ``analyses`` is the function's analysis record; it memoizes this
    query as ``analyses.privatizable(loop)``.
    """
    live_out = analyses.live_out(loop)
    dom_tree = analyses.dominators
    position = analyses.positions

    privatizable = []
    for obj, group in analyses.loop_accesses(loop).items():
        if not obj.is_scalar() or obj in live_out:
            continue
        loads = [
            a.instruction for a in group if isinstance(a.instruction, Load)
        ]
        stores = [
            a.instruction for a in group if isinstance(a.instruction, Store)
        ]
        if len(loads) + len(stores) != len(group):
            continue  # a call touches the object
        if not stores:
            continue  # read-only: nothing to privatize (no deps either)
        if all(_defined_before(load, stores, dom_tree, position)
               for load in loads):
            privatizable.append(obj)
    return privatizable


def _defined_before(load, stores, dom_tree, position):
    for store in stores:
        if store.parent is load.parent:
            if position[store] < position[load]:
                return True
        elif dom_tree.contains(store.parent) and dom_tree.contains(
            load.parent
        ):
            if dom_tree.strictly_dominates(store.parent, load.parent):
                return True
    return False
