"""What the parallel semantics license, derived without the builder.

The PS-PDG builder removes PDG dependences and logs each removal as a
``Relaxation``; every view, Fig. 14 and the optimizer trust that log.
This module recomputes, from the frontend's annotations and the
sequential PDG alone, which (source uid, destination uid, context)
removals each of the five relaxation features licenses (arXiv PS-PDG
paper §3, the §5 map of ``support/sufficiency.py``):

* ``independence`` and ``variable`` — a memory dependence carried at a
  worksharing loop.  Not licensed when both ends sit in one ``ordered``
  region (it keeps iteration order), nor when both ends hold one lock
  (one critical/atomic region, or two regions of one lock key: the lock
  orders them, and removing the edge outright would let them overlap).
  The feature is ``variable`` when the edge's object is declared
  privatizable or reducible by the annotation, its enclosing region or
  ``threadprivate``; ``independence`` otherwise;
* ``undirected`` — a carried conflict between two instances of one
  critical/atomic region: any order, no overlap, at every loop that
  carries it.  That is wider than the paper, whose orderlessness holds
  in the region's parallel carrier: IS relaxes its critical at the
  sequential time-step loop around the parallel region too;
* ``selector`` — ``anyvalue(x)``: any iteration's write to ``x`` may
  win, so ``x``'s carried order inside the annotated loop goes;
* ``task`` — a memory dependence between two sibling tasks with no
  matching ``depend`` clause (its loop-independent instance, in their
  parent's context, and every carried one), and a spawned task's
  dependence on its continuation.  Like the builder, the licence looks
  for no barrier, ``taskwait`` or ``sync`` in between: the builder
  leaves that order to its sync edges, which no view reads.

A triple names what one relaxation removed: one per label of its
``carried_removed``, plus ``(source, destination, context)`` when it
removed the loop-independent instance.  ``unlicensed`` (soundness) must
be empty; ``unlogged`` (completeness) lists licensed triples the log
does not remove under any feature, less the named :data:`EXCEPTIONS`.
Only the tests read this module (``tests/core/test_licenses.py``).
"""

from repro.core.builder import loop_context_label
from repro.frontend.directives import LOOP_INDEPENDENCE_KINDS
from repro.pdg.graph import EDGE_MEMORY

_LOCKED_KINDS = frozenset({"critical", "atomic"})
_TASK_KINDS = frozenset({"task", "cilk_spawn", "section"})

#: Licensed removals the builder leaves in place on purpose, by name.
EXCEPTIONS = {
    "one-lock-across-regions": (
        "a carried conflict between two regions of one lock key stays a "
        "directed edge: the lock, not loop independence, orders it"
    ),
}


def logged(pspdg):
    """feature -> the set of triples the relaxation log removes."""
    triples = {}
    for relaxation in pspdg.relaxations:
        pair = (relaxation.edge.source.uid, relaxation.edge.destination.uid)
        bucket = triples.setdefault(relaxation.feature, set())
        for label in relaxation.carried_removed:
            bucket.add((*pair, label))
        if relaxation.loop_independent_removed:
            bucket.add((*pair, relaxation.context))
    return triples


class _Semantics:
    """The annotations of one PS-PDG's function, read as regions."""

    def __init__(self, pspdg):
        self.pdg = pspdg.pdg
        self.analyses = pspdg.pdg.analyses
        self.annotations = list(pspdg.function.annotations)
        self.by_uid = {a.uid: a for a in self.annotations}
        self.blocks = {a.uid: set(a.block_names) for a in self.annotations}
        self.memory = [e for e in self.pdg.edges if e.kind == EDGE_MEMORY]

    def inside(self, inst, annotation):
        return inst.parent.name in self.blocks[annotation.uid]

    def both_inside(self, edge, annotation):
        return self.inside(edge.source, annotation) and self.inside(
            edge.destination, annotation
        )

    def holders(self, inst):
        """The lock keys held where ``inst`` runs."""
        return {
            a.lock_key
            for a in self.annotations
            if a.directive.kind in _LOCKED_KINDS and self.inside(inst, a)
        }

    def in_one_ordered(self, edge):
        return any(
            a.directive.kind == "ordered" and self.both_inside(edge, a)
            for a in self.annotations
        )

    def one_lock(self, edge):
        return bool(self.holders(edge.source) & self.holders(edge.destination))

    def one_region(self, edge):
        return any(
            a.directive.kind in _LOCKED_KINDS and self.both_inside(edge, a)
            for a in self.annotations
        )

    def object_of(self, annotation, name):
        return self.analyses.storage_object(annotation.binding(name))

    def declared(self, annotation):
        """Objects privatizable or reducible for ``annotation``'s loop."""
        objects = {
            self.analyses.storage_object(self.analyses.module.globals[name])
            for name in self.analyses.module.metadata.get(
                "threadprivate", ()
            )
        }
        for uid in (annotation.uid, annotation.parent_uid):
            region = self.by_uid.get(uid)
            if region is None:
                continue
            clauses = region.directive.clauses
            names = [name for _op, name in clauses.reductions]
            names += clauses.private + clauses.firstprivate
            names += clauses.lastprivate + clauses.anyvalue
            objects.update(self.object_of(region, name) for name in names)
            loop = self.loop_of(region)
            if (
                region.directive.kind in LOOP_INDEPENDENCE_KINDS
                and loop is not None
                and loop.canonical is not None
            ):
                objects.add(
                    self.analyses.storage_object(loop.canonical.induction)
                )
        return objects

    def loop_of(self, annotation):
        if annotation.loop_header is None:
            return None
        return self.analyses.loops_by_header.get(annotation.loop_header)

    def depend(self, a, b):
        def names(annotation, modes):
            return {
                name
                for mode, name in annotation.directive.clauses.depends
                if mode in modes
            }

        a_out, b_out = names(a, {"out", "inout"}), names(b, {"out", "inout"})
        a_in, b_in = names(a, {"in", "inout"}), names(b, {"in", "inout"})
        return bool(a_out & (b_in | b_out) or b_out & (a_in | a_out))


def licensed(pspdg):
    """feature -> the set of triples the annotations license, and the
    set of triples the named :data:`EXCEPTIONS` leave in place."""
    sem = _Semantics(pspdg)
    licence = {}
    excepted = set()

    def grant(feature, edge, context):
        licence.setdefault(feature, set()).add(
            (edge.source.uid, edge.destination.uid, context)
        )

    for annotation in sem.annotations:
        kind = annotation.directive.kind
        loop = sem.loop_of(annotation)
        if kind in LOOP_INDEPENDENCE_KINDS and loop is not None:
            label = loop_context_label(loop.header.name)
            declared = sem.declared(annotation)
            for edge in sem.memory:
                if loop not in edge.carried_loops:
                    continue
                if sem.in_one_ordered(edge):
                    continue
                if sem.one_lock(edge):
                    if not sem.one_region(edge):
                        excepted.add(
                            (edge.source.uid, edge.destination.uid, label)
                        )
                    continue
                grant(
                    "variable" if edge.obj in declared else "independence",
                    edge,
                    label,
                )
        if kind in _LOCKED_KINDS:
            for edge in sem.memory:
                if sem.both_inside(edge, annotation):
                    for carrier in edge.carried_loops:
                        grant(
                            "undirected",
                            edge,
                            loop_context_label(carrier.header.name),
                        )
        if annotation.directive.clauses.anyvalue and loop is not None:
            label = loop_context_label(loop.header.name)
            for name in annotation.directive.clauses.anyvalue:
                obj = sem.object_of(annotation, name)
                for edge in sem.memory:
                    if (
                        edge.obj is obj
                        and loop in edge.carried_loops
                        and sem.both_inside(edge, annotation)
                    ):
                        grant("selector", edge, label)

    tasks = [a for a in sem.annotations if a.directive.kind in _TASK_KINDS]
    for i, first in enumerate(tasks):
        for second in tasks[i + 1:]:
            if first.parent_uid != second.parent_uid:
                continue
            if sem.depend(first, second):
                continue
            for edge in sem.memory:
                if not (
                    sem.inside(edge.source, first)
                    and sem.inside(edge.destination, second)
                    or sem.inside(edge.source, second)
                    and sem.inside(edge.destination, first)
                ):
                    continue
                if edge.loop_independent:
                    grant("task", edge, first.parent_uid or "")
                for carrier in edge.carried_loops:
                    grant(
                        "task", edge, loop_context_label(carrier.header.name)
                    )
    for spawn in tasks:
        if spawn.directive.kind != "cilk_spawn":
            continue
        for edge in sem.memory:
            if (
                edge.loop_independent
                and sem.inside(edge.source, spawn)
                and not sem.inside(edge.destination, spawn)
            ):
                grant("task", edge, spawn.parent_uid or "")
    return licence, excepted


def unlicensed(pspdg, licence=None):
    """Logged triples that no licence of their feature covers."""
    if licence is None:
        licence, _ = licensed(pspdg)
    return sorted(
        (feature, triple)
        for feature, triples in logged(pspdg).items()
        for triple in triples - licence.get(feature, set())
    )


def unlogged(pspdg):
    """Licensed triples the log removes under no feature, less the
    named exceptions."""
    licence, excepted = licensed(pspdg)
    removed = set().union(*logged(pspdg).values())
    return sorted(
        (feature, triple)
        for feature, triples in licence.items()
        for triple in triples - removed - excepted
    )
