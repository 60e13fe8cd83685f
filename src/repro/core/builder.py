"""PS-PDG construction: annotated IR + sequential PDG -> PS-PDG.

The builder follows the paper's pipeline (Fig. 12): it starts from the
sequential PDG and *overlays* on it the parallel semantics the frontend
recorded.  No PDG edge is copied: a changed edge's remaining state sits
in ``PSPDG.overlay``, its selector in ``PSPDG.selectors``.  The memory
edges (the only ones parallel semantics relax or select) are read from
the analysis record, which holds them and files them by carried loop;
the builder never walks ``pdg.edges``.  The passes, in order:

* every natural loop and every directive region becomes a hierarchical
  node; labeled ones are contexts (§3.1, §3.3).  Each block resolves
  its innermost group and its ordering region once;
* data clauses produce parallel semantic variables with use/def accesses
  (§3.6, §5.2);
* worksharing directives remove the loop-carried dependences their
  iteration-independence declaration invalidates (§5.1), except where an
  ordering construct protects them;
* critical/atomic regions turn their carried self-dependences into
  undirected edges (any order, no overlap) and gain the atomic trait
  (§3.2, §3.4, §5.3); ``ordered`` regions keep directed order;
* single/master regions gain the singular trait (§3.2);
* tasks/spawns drop the dependences their asynchrony disclaims and gain
  sync edges from barriers/taskwaits/syncs (§5.1, Appendix A);
* data selectors go on live-in/live-out edges (§3.5), filed by memory
  object; ``anyvalue`` also frees its object's carried order.

Every removed dependence is logged as a :class:`Relaxation` naming its
PDG edge and the feature that justified it.  The planner's three
dependence views (the PDG, J&K and the PS-PDG) and the ablation
projections replay this log selectively.
"""

from repro.core.model import (
    DataSelector,
    HierarchicalNode,
    InstructionNode,
    PSPDG,
    Relaxation,
    SELECTOR_ALL_CONSUMERS,
    SELECTOR_ANY_PRODUCER,
    SELECTOR_LAST_PRODUCER,
    Trait,
    TRAIT_ATOMIC,
    TRAIT_SINGULAR,
    TRAIT_UNORDERED,
    UndirectedEdge,
    VAR_PRIVATIZABLE,
    VAR_REDUCIBLE,
    Variable,
)
from repro.frontend.directives import LOOP_INDEPENDENCE_KINDS
from repro.ir.instructions import Load, Store

# Directive kinds whose regions multiply execution (threads/tasks), i.e.
# legitimate carriers for parallel semantics like critical's orderlessness.
_PARALLEL_CARRIER_KINDS = frozenset(
    {"parallel", "parallel_for", "for", "taskloop", "simd", "cilk_for"}
    | {"task", "sections", "cilk_scope"}
)

_ORDERING_REGION_KINDS = frozenset({"critical", "atomic", "ordered"})


def loop_context_label(header_name):
    """The context label assigned to a natural loop's hierarchical node."""
    return f"loop:{header_name}"


class PSPDGBuilder:
    """Builds the PS-PDG of one annotated function from its PDG."""

    def __init__(self, pdg):
        self.pdg = pdg
        self.analyses = pdg.analyses
        self.function = pdg.function
        self.module = self.analyses.module
        self.graph = PSPDG(pdg)
        self._groups = []  # (node, block_name_set, size): innermost lookup
        self._annotation_nodes = {}  # annotation uid -> HierarchicalNode
        self._ordering = {}  # block -> innermost critical/atomic/ordered
        self._memory = self.analyses.dependences  # the PDG's memory edges
        self._by_object = None  # id(memory object) -> its memory edges

    # -- entry point -----------------------------------------------------------

    def build(self):
        self._build_hierarchy()
        self._apply_data_clauses()
        self._apply_worksharing()
        self._apply_ordering_regions()
        self._apply_traits()
        self._apply_tasks_and_sync()
        self._attach_selectors()
        return self.graph

    # -- hierarchy (§3.1, §3.3) -------------------------------------------------

    def _build_hierarchy(self):
        groups = []
        for loop in self.analyses.loops:
            label = loop_context_label(loop.header.name)
            node = HierarchicalNode(
                "loop", context_label=label, source_uid=loop.header.name
            )
            block_names = {b.name for b in loop.blocks}
            groups.append((node, block_names, len(block_names), loop))
            self.graph.context_of_loop[loop.header.name] = label

        for annotation in self.function.annotations:
            node = HierarchicalNode(
                annotation.directive.kind,
                context_label=annotation.uid,
                source_uid=annotation.uid,
            )
            block_names = set(annotation.block_names)
            groups.append((node, block_names, len(block_names), annotation))
            self._annotation_nodes[annotation.uid] = node

        # Parent = smallest strictly containing group.  Ties (identical
        # block sets) nest the later-created annotation inside the earlier,
        # matching pragma stacking order.
        for index, (node, blocks, size, _src) in enumerate(groups):
            best = None
            for j, (other, other_blocks, other_size, _o) in enumerate(groups):
                if j == index:
                    continue
                if blocks < other_blocks or (
                    blocks == other_blocks and j < index
                ):
                    if best is None or other_size < best[1]:
                        best = (other, other_size)
            if best is not None:
                best[0].add_child(node)
            else:
                self.graph.roots.append(node)
            self.graph.register_context(node)
            self._groups.append((node, blocks, size))

        # Each block resolves its innermost group (where its leaves
        # attach) and the ordering region around that group once.
        owners = {}
        for block in self.function.blocks:
            owner = owners[block] = self._innermost_group(block.name)
            while owner is not None and owner.kind not in (
                _ORDERING_REGION_KINDS
            ):
                owner = owner.parent
            self._ordering[block] = owner
        instruction_nodes = self.graph.instruction_nodes
        for inst in self.pdg.nodes:
            leaf = instruction_nodes[inst] = InstructionNode(inst)
            owner = owners[inst.parent]
            if owner is None:
                self.graph.roots.append(leaf)
            else:
                leaf.parent = owner
                owner.children.append(leaf)

    def _innermost_group(self, block_name):
        best = None
        best_size = None
        for node, blocks, size in self._groups:
            if block_name in blocks:
                if best is None or size < best_size:
                    best = node
                    best_size = size
        return best

    # -- memory edges by object -----------------------------------------------

    def _edges_on(self, obj):
        """The memory edges on ``obj``, in graph order."""
        if self._by_object is None:
            self._by_object = {}
            for edge in self._memory:
                self._by_object.setdefault(id(edge.obj), []).append(edge)
        return self._by_object.get(id(obj), ())

    # -- helpers ---------------------------------------------------------------

    def _annotations_of_kind(self, kinds):
        return [
            a
            for a in self.function.annotations
            if a.directive.kind in kinds
        ]

    def _loop_for_annotation(self, annotation):
        return self.analyses.loops_by_header.get(annotation.loop_header)

    def _accesses_of_object(self, obj):
        """(use nodes, def nodes): the loads and stores of ``obj``."""
        uses, defs = [], []
        for access in self.analyses.accesses_by_object.get(obj, ()):
            if isinstance(access.instruction, Load):
                uses.append(self.graph.node_of(access.instruction))
            elif isinstance(access.instruction, Store):
                defs.append(self.graph.node_of(access.instruction))
        return uses, defs

    def _relax(self, edge, loop_independent, carried, *logged, **removed):
        """Leave ``edge`` its remaining state and log what went."""
        self.graph.overlay[edge] = (loop_independent, carried)
        if not (loop_independent or carried):
            self.graph.pruned += 1
        self.graph.relaxations.append(Relaxation(edge, *logged, **removed))

    def _remove_carried(self, edge, context_label, feature):
        """Strip a carried level from an edge, logging the relaxation."""
        loop_independent, carried = self.graph.edge_state(edge)
        if context_label in carried:
            kept = tuple([c for c in carried if c != context_label])
            self._relax(edge, loop_independent, kept, context_label, feature,
                        carried_removed=(context_label,))

    def _remove_carried_all(self, edge, feature):
        loop_independent, removed = self.graph.edge_state(edge)
        if removed:
            self._relax(edge, loop_independent, (), removed[0], feature,
                        carried_removed=removed)
        return bool(removed)

    def _remove_intra(self, edge, context_label, feature):
        loop_independent, carried = self.graph.edge_state(edge)
        if loop_independent:
            self._relax(edge, False, carried, context_label, feature,
                        loop_independent_removed=True)

    # -- data clauses (§5.2) ------------------------------------------------------

    def _apply_data_clauses(self):
        # threadprivate globals: privatizable in the whole-program context.
        threadprivate = self.module.metadata.get("threadprivate", set())
        for name in sorted(threadprivate):
            gvar = self.module.globals[name]
            obj = self.analyses.storage_object(gvar)
            uses, defs = self._accesses_of_object(obj)
            self.graph.add_variable(
                Variable(
                    name=name,
                    storage=gvar,
                    semantics=VAR_PRIVATIZABLE,
                    context="",
                    obj=obj,
                ),
                uses,
                defs,
            )

        for annotation in self.function.annotations:
            clauses = annotation.directive.clauses
            context = annotation.uid
            blocks = set(annotation.block_names)
            for op, name in clauses.reductions:
                self._declare_variable(
                    annotation, name, VAR_REDUCIBLE, context, blocks, op
                )
            for name in clauses.private:
                self._declare_variable(
                    annotation, name, VAR_PRIVATIZABLE, context, blocks
                )
            for name in clauses.firstprivate:
                self._declare_variable(
                    annotation, name, VAR_PRIVATIZABLE, context, blocks
                )
            for name in clauses.lastprivate:
                self._declare_variable(
                    annotation, name, VAR_PRIVATIZABLE, context, blocks
                )
            for name in clauses.anyvalue:
                # anyvalue(x) is the benign-race/any-write-wins idiom:
                # lowered as a privatizable copy whose winning value is
                # chosen by the Any-Producer selector.
                self._declare_variable(
                    annotation, name, VAR_PRIVATIZABLE, context, blocks
                )
            # Worksharing induction variables are privatized by the model.
            if (
                annotation.directive.kind in LOOP_INDEPENDENCE_KINDS
                and annotation.loop_header is not None
            ):
                loop = self._loop_for_annotation(annotation)
                if loop is not None and loop.canonical is not None:
                    induction = loop.canonical.induction
                    obj = self.analyses.storage_object(induction)
                    uses, defs = self._accesses_of_object(obj)
                    self.graph.add_variable(
                        Variable(
                            name=induction.var_name or "<iv>",
                            storage=induction,
                            semantics=VAR_PRIVATIZABLE,
                            context=context,
                            obj=obj,
                        ),
                        uses,
                        defs,
                    )

    def _declare_variable(
        self, annotation, name, semantics, context, blocks, op=None
    ):
        storage = annotation.binding(name)
        obj = self.analyses.storage_object(storage)
        uses, defs = self._accesses_of_object(obj)
        self.graph.add_variable(
            Variable(
                name=name,
                storage=storage,
                semantics=semantics,
                context=context,
                reducer_op=op,
                obj=obj,
            ),
            uses,
            defs,
        )

    def _variable_objects_for(self, context_labels, semantics=None):
        objects = {}
        for variable in self.graph.variables:
            if variable.context in context_labels or variable.context == "":
                if semantics is None or variable.semantics == semantics:
                    objects[id(variable.obj)] = variable
        return objects

    # -- worksharing independence (§5.1) -----------------------------------------

    def _apply_worksharing(self):
        lock_keys = {a.uid: a.lock_key for a in self.function.annotations}
        for annotation in self._annotations_of_kind(LOOP_INDEPENDENCE_KINDS):
            loop = self._loop_for_annotation(annotation)
            if loop is None:
                continue
            loop_label = loop_context_label(loop.header.name)
            region_labels = {annotation.uid, loop_label}
            if annotation.parent_uid is not None:
                region_labels.add(annotation.parent_uid)
            protected_vars = self._variable_objects_for(region_labels)

            for edge in self.analyses.carried_by_header.get(loop.header, ()):
                src_region = self._ordering[edge.source.parent]
                dst_region = self._ordering[edge.destination.parent]
                if src_region is not None and src_region is dst_region:
                    if src_region.kind == "ordered":
                        continue  # explicit iteration order preserved
                    # critical/atomic: handled by _apply_ordering_regions.
                    continue
                if src_region is not None and dst_region is not None:
                    src_key = lock_keys.get(src_region.source_uid)
                    if src_key is not None and src_key == lock_keys.get(
                        dst_region.source_uid
                    ):
                        continue  # cross-region, same lock: also orderless
                variable = (
                    protected_vars.get(id(edge.obj))
                    if edge.obj is not None
                    else None
                )
                feature = "independence" if variable is None else "variable"
                self._remove_carried(edge, loop_label, feature)

    # -- ordering constructs (§5.3) ----------------------------------------------

    def _apply_ordering_regions(self):
        for annotation in self._annotations_of_kind({"critical", "atomic"}):
            region = self._annotation_nodes[annotation.uid]
            carrier = self._innermost_carrier(region)
            carrier_label = (
                carrier.context_label if carrier is not None else ""
            )
            region.add_trait(Trait(TRAIT_ATOMIC, carrier_label))
            region.add_trait(Trait(TRAIT_UNORDERED, carrier_label))

            member_instructions = set(region.leaf_instructions())
            emitted = False
            for edge in self._memory:
                if (
                    edge.carried_loops
                    and edge.source in member_instructions
                    and edge.destination in member_instructions
                    and self._remove_carried_all(edge, "undirected")
                ):
                    emitted = True
            if emitted or member_instructions:
                self.graph.add_undirected_edge(
                    UndirectedEdge(region, region, carrier_label)
                )
            # Criticals elsewhere on the same lock: undirected edges
            # between the regions.
            for other in self._annotations_of_kind({"critical"}):
                if (
                    other.uid > annotation.uid
                    and other.lock_key == annotation.lock_key
                ):
                    self.graph.add_undirected_edge(
                        UndirectedEdge(
                            region,
                            self._annotation_nodes[other.uid],
                            carrier_label,
                        )
                    )

    def _innermost_carrier(self, node):
        """The nearest enclosing loop or parallel-carrier node of
        ``node``, or ``None``."""
        probe = node.parent
        while probe is not None:
            if (
                isinstance(probe, HierarchicalNode)
                and probe.kind in _PARALLEL_CARRIER_KINDS | {"loop"}
            ):
                return probe
            probe = probe.parent
        return None

    # -- traits (§3.2) ----------------------------------------------------------

    def _apply_traits(self):
        for annotation in self._annotations_of_kind({"single", "master"}):
            region = self._annotation_nodes[annotation.uid]
            carrier = self._innermost_carrier(region)
            label = carrier.context_label if carrier is not None else ""
            region.add_trait(Trait(TRAIT_SINGULAR, label))

    # -- tasks, spawns, and synchronization ---------------------------------------

    def _apply_tasks_and_sync(self):
        task_like = self._annotations_of_kind({"task", "cilk_spawn", "section"})
        task_nodes = [self._annotation_nodes[a.uid] for a in task_like]
        task_members = [
            set(node.leaf_instructions()) for node in task_nodes
        ]

        # Independence between sibling tasks: remove memory edges between
        # distinct task regions unless depend clauses connect them.
        for i, annotation_a in enumerate(task_like):
            for j, annotation_b in enumerate(task_like):
                if i >= j:
                    continue
                if annotation_a.parent_uid != annotation_b.parent_uid:
                    continue
                if self._tasks_depend(annotation_a, annotation_b):
                    continue
                for edge in self._memory:
                    source, destination = edge.source, edge.destination
                    crossing = (
                        source in task_members[i]
                        and destination in task_members[j]
                    ) or (
                        source in task_members[j]
                        and destination in task_members[i]
                    )
                    if not crossing:
                        continue
                    context = annotation_a.parent_uid or ""
                    self._remove_intra(edge, context, "task")
                    self._remove_carried_all(edge, "task")

        # Spawned work is independent of its continuation until the sync.
        for annotation in self._annotations_of_kind({"cilk_spawn"}):
            members = set(
                self._annotation_nodes[annotation.uid].leaf_instructions()
            )
            for edge in self._memory:
                if (
                    edge.source not in members
                    or edge.destination in members
                ):
                    continue
                # Everything after the spawn is continuation; the sync
                # edges below re-anchor ordering at barriers and syncs.
                self._remove_intra(edge, annotation.parent_uid or "", "task")

        # Barriers / taskwaits / syncs: ordering edges at region level.
        for annotation in self._annotations_of_kind(
            {"barrier", "taskwait", "cilk_sync"}
        ):
            node = self._annotation_nodes[annotation.uid]
            for task_node in task_nodes:
                self.graph.sync_edges.append((task_node, node))

    def _tasks_depend(self, annotation_a, annotation_b):
        def names(annotation, modes):
            return {
                name
                for mode, name in annotation.directive.clauses.depends
                if mode in modes
            }

        a_out = names(annotation_a, {"out", "inout"})
        b_out = names(annotation_b, {"out", "inout"})
        a_in = names(annotation_a, {"in", "inout"})
        b_in = names(annotation_b, {"in", "inout"})
        return bool(a_out & (b_in | b_out) or b_out & (a_in | a_out))

    # -- data selectors (§3.5) ----------------------------------------------------

    def _attach_selectors(self):
        for annotation in self.function.annotations:
            clauses = annotation.directive.clauses
            blocks = set(annotation.block_names)
            loop = self._loop_for_annotation(annotation)
            for name in clauses.lastprivate:
                self._selector_on_liveout(
                    annotation, name, blocks, SELECTOR_LAST_PRODUCER
                )
            for name in clauses.anyvalue:
                self._selector_on_liveout(
                    annotation, name, blocks, SELECTOR_ANY_PRODUCER
                )
                self._relax_liveout_order(annotation, name, blocks, loop)
            for name in clauses.firstprivate:
                self._selector_on_livein(
                    annotation, name, blocks, SELECTOR_ALL_CONSUMERS
                )

    def _selector_on_liveout(self, annotation, name, blocks, kind):
        storage = annotation.binding(name)
        obj = self.analyses.storage_object(storage)
        for edge in self._edges_on(obj):
            if (
                edge.mem_kind == "RAW"
                and edge.source.parent.name in blocks
                and edge.destination.parent.name not in blocks
            ):
                self.graph.selectors[edge] = DataSelector(kind, annotation.uid)

    def _selector_on_livein(self, annotation, name, blocks, kind):
        storage = annotation.binding(name)
        obj = self.analyses.storage_object(storage)
        for edge in self._edges_on(obj):
            if (
                edge.mem_kind == "RAW"
                and edge.destination.parent.name in blocks
                and edge.source.parent.name not in blocks
            ):
                self.graph.selectors[edge] = DataSelector(kind, annotation.uid)

    def _relax_liveout_order(self, annotation, name, blocks, loop):
        """anyvalue(x): any iteration's write may win; WAW/WAR on x inside
        the region lose their carried component (feature: selector)."""
        if loop is None:
            return
        storage = annotation.binding(name)
        obj = self.analyses.storage_object(storage)
        loop_label = loop_context_label(loop.header.name)
        for edge in self._edges_on(obj):
            if (
                edge.source.parent.name in blocks
                and edge.destination.parent.name in blocks
            ):
                # (Usually already removed via the privatizable variable;
                # this catches anyvalue on loops without other clauses.)
                self._remove_carried(edge, loop_label, "selector")
