"""Dependence views: what each abstraction lets the planner see.

The evaluation compares four abstractions (paper §6.2):

* **OpenMP** — the programmer's plan, no dependence graph at all;
* **PDG** — the sequential PDG over the (sequential interpretation of the)
  program, plus the textbook SCC-breaking analyses a PDG-based
  parallelizer has: induction variables, scalar reductions, sequential
  scalar privatization;
* **J&K** — the PDG improved with worksharing iteration-independence only
  (Jensen & Karlsson, TACO'17): loop-carried dependences removed at
  developer-annotated loops, except those protected by ordering constructs
  or justified only by data-clause semantics the PDG cannot represent;
* **PS-PDG** — the full parallel semantics.

Each graph abstraction is the sequential PDG minus the dependences its
parallel-semantics features relax: the PS-PDG builder logs every removed
dependence with the feature that justified it, and a view keeps the
relaxations of its features (:data:`VIEW_FEATURES`) — none for the PDG,
``independence`` for J&K, all of them for the PS-PDG.  The analysis
record's ``removable(loop)`` — induction variables, recognized
reductions, privatizable scalars — is abstraction-independent and shared.

A view is a snapshot of a finished graph.  A session's views share one
:class:`DependenceIndex`: one walk of the log and the PDG's edges files
each dependence under its loops with the features that relax it there.
A view filters a loop's bucket only where its features relax something
(``relaxing``); ``classify_loop`` keeps one classification per graph.
"""
# Per NAS8 sweep (8 kernels × 3 views, plan and options), one core of a
# shared Xeon, CPython 3.11: planning 88–114 ms with a walk and a Tarjan
# per view and loop, 49–65 ms over one index (156 → 83 classifications).

import functools

from repro.core.builder import loop_context_label
from repro.core.model import RELAXATION_FEATURES

#: Abstraction name -> the relaxation features whose removals it sees.
VIEW_FEATURES = {
    "PDG": (),
    "J&K": ("independence",),
    "PS-PDG": RELAXATION_FEATURES,
}


class DependenceIndex:
    """One PS-PDG's dependences filed by loop, shared by its views."""

    def __init__(self, pspdg):
        self.pspdg = pspdg
        #: ``classify_loop``'s memo: (header name, relaxing, serialized).
        self.classifications = {}

    @functools.cached_property
    def buckets(self):
        """``(carried, intra, touched, undirected)``: by loop header,
        ``(obj, src, dst, features)`` and ``(src, dst, features)`` entries
        and the features relaxing any of them; then the endpoints of the
        orderless relaxations.  Graph order fixes Tarjan's, so the SCCs,
        the DSWP stages and ``describe()``: no bucket is a set."""
        # PDG edge -> [{carried context label: features}, the
        # loop-independent instance's features].
        relaxed, undirected = {}, set()
        for relaxation in self.pspdg.relaxations:
            edge = relaxation.edge
            removed = relaxed.get(edge)
            if removed is None:
                removed = relaxed[edge] = [{}, set()]
            for label in relaxation.carried_removed:
                removed[0].setdefault(label, set()).add(relaxation.feature)
            if relaxation.loop_independent_removed:
                removed[1].add(relaxation.feature)
            if relaxation.feature == "undirected":
                undirected.update((edge.source, edge.destination))

        loops_of_block = self.pspdg.pdg.analyses.loops_of_block
        carried, intra, touched, buckets_of = {}, {}, {}, {}
        for edge in self.pspdg.pdg.edges:
            pair = (edge.source, edge.destination)
            removed = relaxed.get(edge, ((), ()))
            for loop in edge.carried_loops:
                features = removed[0] and removed[0].get(
                    loop_context_label(loop.header.name), ()
                )
                carried.setdefault(loop.header, []).append(
                    (edge.obj, *pair, features)
                )
                if features:
                    touched.setdefault(loop.header, set()).update(features)
            if not edge.loop_independent:
                continue
            blocks = (pair[0].parent, pair[1].parent)
            buckets = buckets_of.get(blocks)
            if buckets is None:
                buckets = buckets_of[blocks] = [
                    (loop.header, intra.setdefault(loop.header, []))
                    for loop in loops_of_block[blocks[0]]
                    if blocks[1] in loop.blocks
                ]
            entry = (*pair, removed[1])  # one tuple in every loop's bucket
            for header, bucket in buckets:
                bucket.append(entry)
                if removed[1]:
                    touched.setdefault(header, set()).update(removed[1])
        return carried, intra, touched, undirected


class DependenceView:
    """Loop-level dependence queries under one abstraction: the PS-PDG's
    sequential PDG minus the relaxations of ``VIEW_FEATURES[name]``."""

    def __init__(self, name, pspdg, index=None):
        self.name = name
        self.features = VIEW_FEATURES[name]
        self.pspdg = pspdg
        self.analyses = pspdg.pdg.analyses
        self.index = index or DependenceIndex(pspdg)
        #: header name -> this view's entry of ``index.classifications``.
        self.classifications = {}

    def relaxing(self, loop):
        """This view's features that remove a dependence at ``loop``."""
        touched = self.index.buckets[2].get(loop.header, ())
        return frozenset(f for f in self.features if f in touched)

    def carried_edges(self, loop):
        """Directed dependences carried at ``loop`` (after this
        abstraction's removals); list of (src_inst, dst_inst)."""
        removable = self.analyses.removable(loop)
        return [
            (src, dst)
            for obj, src, dst, _ in self._entries(0, loop)
            if obj is None or obj not in removable
        ]

    def intra_edges(self, loop):
        """Loop-independent dependences between instructions of ``loop``."""
        return [(src, dst) for src, dst, _ in self._entries(1, loop)]

    def _entries(self, kind, loop):
        entries = self.index.buckets[kind].get(loop.header, ())
        relaxing = self.relaxing(loop)
        if relaxing:
            return [e for e in entries if relaxing.isdisjoint(e[-1])]
        return entries

    def serialized_uids(self, loop):
        """Work that must hold the lock inside ``loop`` (orderless regions).

        Rather than the whole critical region (whose control flow and
        address computations an optimizing compiler hoists outside the
        lock), the serialized set is the conflicting dataflow chain: the
        accesses whose loop-carried dependences the orderless semantics
        relaxed, plus every region instruction on a register path between
        them.  This is the minimum mutual-exclusion work, which is what an
        ideal machine serializes.  Empty unless the abstraction
        understands orderlessness (keeps ``undirected``).
        """
        if "undirected" not in self.features:
            return frozenset()
        region_members = {}
        for uedge in self.pspdg.undirected_edges:
            for node in (uedge.a, uedge.b):
                members = [
                    inst
                    for inst in node.leaf_instructions()
                    if loop.contains_instruction(inst)
                ]
                if members:
                    region_members[id(node)] = members
        if not region_members:
            return frozenset()

        endpoints = self.index.buckets[3]
        uids = set()
        for members in region_members.values():
            selected = endpoints.intersection(members)
            if not selected:
                continue
            # Close over register dataflow between the conflicting
            # endpoints within the region (e.g. the add between the load
            # and the store of a locked update).
            changed = True
            while changed:
                changed = False
                for inst in members:
                    if inst in selected:
                        continue
                    feeds = any(
                        op in selected
                        for op in inst.operands
                        if hasattr(op, "opcode")
                    )
                    fed = any(
                        inst in other.operands
                        for other in selected
                        if hasattr(other, "operands")
                    )
                    if feeds and fed:
                        selected.add(inst)
                        changed = True
            uids.update(inst.uid for inst in selected)
        return frozenset(uids)
