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
option counting are shared.
"""

from repro.analysis.alias import AliasAnalysis
from repro.analysis.privatization import sequentially_privatizable_objects
from repro.analysis.reductions import find_scalar_reductions
from repro.core.builder import loop_context_label
from repro.pdg.graph import EDGE_MEMORY


class DependenceView:
    """Base: loop-level dependence queries backed by some abstraction."""

    name = "<abstract>"

    def __init__(self, function, module, alias=None, removable=None):
        self.function = function
        self.module = module
        self.alias = alias if alias is not None else AliasAnalysis(module)
        #: header name -> removable objects; abstraction-independent, so
        #: the views of one function may share one mapping.
        self.removable = removable if removable is not None else {}
        #: header name -> LoopClassification (``classify_loop``'s memo).
        self.classifications = {}

    def loop_instructions(self, loop):
        return [inst for inst in self.function.instructions()
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

    def removable_objects(self, loop):
        """Objects whose carried deps the planner may break (induction
        variables, recognized reductions, privatizable scalars) — every
        abstraction has these sequential techniques available."""
        key = loop.header.name
        if key not in self.removable:
            removable = set()
            if loop.canonical is not None:
                # Induction variable: its update chain is regenerable.
                removable.add(
                    self.alias.object_for_alloca(loop.canonical.induction)
                )
            for reduction in find_scalar_reductions(
                self.function, self.module, loop, self.alias
            ):
                removable.add(reduction.obj)
            for obj in sequentially_privatizable_objects(
                self.function, self.module, loop, self.alias
            ):
                removable.add(obj)
            self.removable[key] = removable
        return self.removable[key]


class _PdgBackedView(DependenceView):
    """Shared machinery for views that filter the sequential PDG."""

    def __init__(self, function, module, pdg, alias=None, removable=None):
        super().__init__(function, module, alias, removable)
        self.pdg = pdg

    def _edge_visible(self, edge, loop):
        raise NotImplementedError

    def carried_edges(self, loop):
        removable = self.removable_objects(loop)
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

    def __init__(self, function, module, pdg, pspdg, alias=None,
                 removable=None):
        super().__init__(function, module, pdg, alias, removable)
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

    def __init__(self, function, module, pspdg, alias=None, removable=None):
        super().__init__(function, module, alias, removable)
        self.pspdg = pspdg

    def carried_edges(self, loop):
        label = loop_context_label(loop.header.name)
        removable = self.removable_objects(loop)
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
