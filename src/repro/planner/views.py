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
"""

from repro.core.builder import loop_context_label


class DependenceView:
    """Base: loop-level dependence queries backed by some abstraction."""

    name = "<abstract>"

    def __init__(self, analyses):
        self.analyses = analyses
        #: header name -> LoopClassification (``classify_loop``'s memo).
        self.classifications = {}

    def loop_instructions(self, loop):
        return [inst for inst in self.analyses.function.instructions()
                if loop.contains_instruction(inst)]

    # Queries implemented by subclasses -------------------------------------

    def carried_edges(self, loop):
        """Directed dependences carried at ``loop`` (after this
        abstraction's removals); list of (src_inst, dst_inst)."""
        raise NotImplementedError

    def intra_edges(self, loop):
        """Loop-independent dependences between instructions of ``loop``."""
        raise NotImplementedError

    def serialized_uids(self, loop):
        """Instructions that must not overlap across iterations but may run
        in any order (orderless critical/atomic work) — empty unless the
        abstraction understands orderlessness."""
        return frozenset()


class _PdgBackedView(DependenceView):
    """Shared machinery for views that filter the sequential PDG."""

    def __init__(self, pdg):
        super().__init__(pdg.analyses)
        self.pdg = pdg

    def _edge_visible(self, edge, loop):
        raise NotImplementedError

    def carried_edges(self, loop):
        removable = self.analyses.removable(loop)
        result = []
        for edge in self.pdg.edges:
            if loop not in edge.carried_loops:
                continue
            if not self._edge_visible(edge, loop):
                continue
            if edge.obj is not None and edge.obj in removable:
                continue
            result.append((edge.source, edge.destination))
        return result

    def intra_edges(self, loop):
        result = []
        for edge in self.pdg.edges:
            if not edge.loop_independent:
                continue
            if not (
                loop.contains_instruction(edge.source)
                and loop.contains_instruction(edge.destination)
            ):
                continue
            result.append((edge.source, edge.destination))
        return result


class PDGView(_PdgBackedView):
    """The sequential-PDG baseline."""

    name = "PDG"

    def _edge_visible(self, edge, loop):
        return True


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

    def carried_edges(self, loop):
        label = loop_context_label(loop.header.name)
        removable = self.analyses.removable(loop)
        result = []
        for edge in self.pspdg.directed_edges:
            if label not in edge.carried_contexts:
                continue
            if edge.kind == "sync":
                continue
            if edge.obj is not None and edge.obj in removable:
                continue
            sources = edge.producer.leaf_instructions()
            destinations = edge.consumer.leaf_instructions()
            for src in sources:
                for dst in destinations:
                    result.append((src, dst))
        return result

    def intra_edges(self, loop):
        result = []
        for edge in self.pspdg.directed_edges:
            if not edge.loop_independent or edge.kind == "sync":
                continue
            sources = edge.producer.leaf_instructions()
            destinations = edge.consumer.leaf_instructions()
            for src in sources:
                for dst in destinations:
                    if loop.contains_instruction(
                        src
                    ) and loop.contains_instruction(dst):
                        result.append((src, dst))
        return result

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
