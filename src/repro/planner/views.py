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

A view is a snapshot of a finished graph.  Its first query walks the
kept relaxations once and the PDG's edges once and buckets them: carried
edges by loop and loop-independent pairs under every loop that contains
both ends, each bucket in graph order.  Every later query is a bucket
lookup, so classifying all loops costs one walk per view, not two per
loop.
"""
# Per NAS8 sweep (8 kernels × 3 views × every loop), one core of a shared
# Xeon, CPython 3.11: classification 62–70 ms with a scan per query, 42–47
# ms over buckets (memdep's memos: 22–23 → 13–15 ms).

import functools

from repro.core.builder import loop_context_label
from repro.core.model import RELAXATION_FEATURES

#: Abstraction name -> the relaxation features whose removals it sees.
VIEW_FEATURES = {
    "PDG": (),
    "J&K": ("independence",),
    "PS-PDG": RELAXATION_FEATURES,
}


class DependenceView:
    """Loop-level dependence queries under one abstraction: the PS-PDG's
    sequential PDG minus the relaxations of ``VIEW_FEATURES[name]``."""

    def __init__(self, name, pspdg):
        self.name = name
        self.features = VIEW_FEATURES[name]
        self.pspdg = pspdg
        self.analyses = pspdg.pdg.analyses
        #: header name -> LoopClassification (``classify_loop``'s memo).
        self.classifications = {}

    def loop_instructions(self, loop):
        """The loop's instructions in function order."""
        return [
            inst
            for block in self.analyses.function.blocks
            if block in loop.blocks
            for inst in block.instructions
        ]

    def carried_edges(self, loop):
        """Directed dependences carried at ``loop`` (after this
        abstraction's removals); list of (src_inst, dst_inst)."""
        removable = self.analyses.removable(loop)
        return [
            (src, dst)
            for obj, src, dst in self._buckets[0].get(loop.header, ())
            if obj is None or obj not in removable
        ]

    def intra_edges(self, loop):
        """Loop-independent dependences between instructions of ``loop``."""
        return list(self._buckets[1].get(loop.header, ()))

    @functools.cached_property
    def _buckets(self):
        """``(carried, intra)``, both keyed by loop header.  Graph order
        fixes Tarjan's, so the SCCs, the DSWP stages and ``describe()``
        downstream: no bucket is ever a set."""
        # (source, destination, kind, mem_kind, id(obj)) -> [carried
        # context labels removed, loop-independent instance removed].
        relaxed = {}
        for relaxation in self.pspdg.relaxations:
            if relaxation.feature not in self.features:
                continue
            removed = relaxed.setdefault(
                (relaxation.source, relaxation.destination, relaxation.kind,
                 relaxation.mem_kind, id(relaxation.obj)),
                [set(), False],
            )
            removed[0].update(relaxation.carried_removed)
            removed[1] = removed[1] or relaxation.loop_independent_removed

        loops_of_block = self.analyses.loops_of_block
        carried, intra, buckets_of = {}, {}, {}
        for edge in self.pspdg.pdg.edges:
            pair = (edge.source, edge.destination)
            removed = (
                relaxed.get((*pair, edge.kind, edge.mem_kind, id(edge.obj)))
                if relaxed
                else None
            )
            for loop in edge.carried_loops:
                if not removed or (
                    loop_context_label(loop.header.name) not in removed[0]
                ):
                    carried.setdefault(loop.header, []).append(
                        (edge.obj, *pair)
                    )
            if not edge.loop_independent or (removed and removed[1]):
                continue
            blocks = (pair[0].parent, pair[1].parent)
            buckets = buckets_of.get(blocks)
            if buckets is None:
                buckets = buckets_of[blocks] = [
                    intra.setdefault(loop.header, [])
                    for loop in loops_of_block[blocks[0]]
                    if blocks[1] in loop.blocks
                ]
            for bucket in buckets:
                bucket.append(pair)
        return carried, intra

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

        endpoints = set()
        for relaxation in self.pspdg.relaxations:
            if relaxation.feature != "undirected":
                continue
            endpoints.add(relaxation.source)
            endpoints.add(relaxation.destination)

        uids = set()
        for members in region_members.values():
            member_set = set(members)
            seeds = endpoints & member_set
            if not seeds:
                continue
            # Close over register dataflow between the conflicting
            # endpoints within the region (e.g. the add between the load
            # and the store of a locked update).
            selected = set(seeds)
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
