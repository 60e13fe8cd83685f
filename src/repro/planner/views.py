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

All three graph views answer the same queries, so classification and
option counting are shared.  Each view is built from its graph alone:
the graph carries the function's analysis record, whose
``removable(loop)`` — induction variables, recognized reductions,
privatizable scalars — is abstraction-independent and shared.

A view is a snapshot of a finished graph.  Its first query walks the
graph's edges once and buckets them: carried edges by loop (by context
label on the PS-PDG) and loop-independent pairs under every loop that
contains both ends, each bucket in graph order.  Every later query is a
bucket lookup, so classifying all loops costs one walk per view, not
two per loop.
"""
# Per NAS8 sweep (8 kernels × 3 views × every loop), one core of a shared
# Xeon, CPython 3.11: classification 62–70 ms with a scan per query, 42–47
# ms over buckets (memdep's memos: 22–23 → 13–15 ms).

import functools

from repro.core.builder import loop_context_label


class DependenceView:
    """Base: loop-level dependence queries backed by some abstraction."""

    name = "<abstract>"

    def __init__(self, analyses):
        self.analyses = analyses
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
            for obj, src, dst in self._buckets[0].get(
                self._carried_key(loop), ()
            )
            if obj is None or obj not in removable
        ]

    def intra_edges(self, loop):
        """Loop-independent dependences between instructions of ``loop``."""
        return list(self._buckets[1].get(loop.header, ()))

    def serialized_uids(self, loop):
        """Instructions that must not overlap across iterations but may run
        in any order (orderless critical/atomic work) — empty unless the
        abstraction understands orderlessness."""
        return frozenset()

    # Implemented by subclasses: the graph's edges, in graph order, as
    # ``(obj, (src_inst, dst_inst) pairs, carried keys, loop_independent)``,
    # and the key a loop's carried edges are filed under.

    def _edges(self):
        raise NotImplementedError

    def _carried_key(self, loop):
        raise NotImplementedError

    @functools.cached_property
    def _buckets(self):
        """``(carried, intra)``, keyed by carried key and loop header.
        Graph order fixes Tarjan's, so the SCCs, the DSWP stages and
        ``describe()`` downstream: no bucket is ever a set."""
        loops_of_block = self.analyses.loops_of_block
        carried, intra, buckets_of = {}, {}, {}
        for obj, pairs, keys, loop_independent in self._edges():
            for key in keys:
                carried.setdefault(key, []).extend(
                    (obj, src, dst) for src, dst in pairs
                )
            if not loop_independent:
                continue
            for pair in pairs:
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


class _PdgBackedView(DependenceView):
    """Shared machinery for views that filter the sequential PDG."""

    def __init__(self, pdg):
        super().__init__(pdg.analyses)
        self.pdg = pdg

    def _edge_visible(self, edge, loop):
        return True

    def _edges(self):
        for edge in self.pdg.edges:
            yield (
                edge.obj,
                ((edge.source, edge.destination),),
                [
                    loop.header
                    for loop in edge.carried_loops
                    if self._edge_visible(edge, loop)
                ],
                edge.loop_independent,
            )

    def _carried_key(self, loop):
        return loop.header


class PDGView(_PdgBackedView):
    """The sequential-PDG baseline."""

    name = "PDG"


class JKView(_PdgBackedView):
    """PDG + worksharing iteration-independence (Jensen & Karlsson).

    Implemented by replaying the PS-PDG builder's relaxation log: only
    relaxations justified purely by the independence declaration
    (feature == "independence") at annotated loops apply; variable
    semantics, orderless criticals, selectors, and task independence do
    not (the PDG has no way to represent them).
    """

    name = "J&K"

    def __init__(self, pspdg):
        super().__init__(pspdg.pdg)
        self.pspdg = pspdg
        self._independent = set()
        for relaxation in pspdg.relaxations:
            if relaxation.feature == "independence":
                for context in relaxation.carried_removed:
                    self._independent.add(
                        (
                            relaxation.source,
                            relaxation.destination,
                            context,
                        )
                    )

    def _edge_visible(self, edge, loop):
        label = loop_context_label(loop.header.name)
        return (edge.source, edge.destination, label) not in self._independent


class PSPDGView(DependenceView):
    """The full PS-PDG view."""

    name = "PS-PDG"

    def __init__(self, pspdg):
        super().__init__(pspdg.pdg.analyses)
        self.pspdg = pspdg

    def _edges(self):
        for edge in self.pspdg.directed_edges:
            if edge.kind == "sync":
                continue
            yield (
                edge.obj,
                [
                    (src, dst)
                    for src in edge.producer.leaf_instructions()
                    for dst in edge.consumer.leaf_instructions()
                ],
                edge.carried_contexts,
                edge.loop_independent,
            )

    def _carried_key(self, loop):
        return loop_context_label(loop.header.name)

    def serialized_uids(self, loop):
        """Work that must hold the lock inside ``loop`` (orderless regions).

        Rather than the whole critical region (whose control flow and
        address computations an optimizing compiler hoists outside the
        lock), the serialized set is the conflicting dataflow chain: the
        accesses whose loop-carried dependences the orderless semantics
        relaxed, plus every region instruction on a register path between
        them.  This is the minimum mutual-exclusion work, which is what an
        ideal machine serializes.
        """
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
