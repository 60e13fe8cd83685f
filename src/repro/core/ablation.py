"""Feature-removal projections ("PS-PDG w/o X"), per Section 4 of the paper.

Each projection maps a PS-PDG to a :class:`ReducedGraph`: the representation
a compiler would be left with if the feature did not exist.  Removing a
feature has two effects:

1. the feature's annotations disappear from the representation, and
2. the dependences the feature had justified removing come back (the
   builder's relaxation log says exactly which), because a sound compiler
   must now assume them.

The necessity argument (Fig. 11) is then executable: two semantically
different programs whose full PS-PDGs differ become *identical* reduced
graphs under the projection that removes the feature distinguishing them
(checked via :mod:`repro.core.canonical`).
"""

import dataclasses

from repro.core.model import (
    HierarchicalNode,
    InstructionNode,
    RELAXATION_FEATURES,
)

FEATURE_HIERARCHICAL_UNDIRECTED = "hn_ue"
FEATURE_TRAITS = "nt"
FEATURE_CONTEXTS = "c"
FEATURE_SELECTORS = "dsde"
FEATURE_VARIABLES = "psv"

ALL_FEATURES = (
    FEATURE_HIERARCHICAL_UNDIRECTED,
    FEATURE_TRAITS,
    FEATURE_CONTEXTS,
    FEATURE_SELECTORS,
    FEATURE_VARIABLES,
)

#: Fig. 11 feature -> the relaxations that come back when it is removed.
#: Contexts take every relaxation with them: each one names the context
#: it holds in.
RESTORED_BY = {
    FEATURE_HIERARCHICAL_UNDIRECTED: ("undirected",),
    FEATURE_TRAITS: (),
    FEATURE_CONTEXTS: RELAXATION_FEATURES,
    FEATURE_SELECTORS: ("selector",),
    FEATURE_VARIABLES: ("variable",),
}


@dataclasses.dataclass
class ReducedNode:
    """Projection of a PS-PDG node."""

    key: object  # stable id within the reduced graph
    color: str  # opcode/kind descriptor
    traits: tuple  # (kind, context) pairs, possibly context-erased
    parent: object = None  # parent key, or None when hierarchy removed


@dataclasses.dataclass
class ReducedEdge:
    key_a: object
    key_b: object
    directed: bool
    label: str  # kind/mem-kind/selector/carried descriptor


@dataclasses.dataclass
class ReducedVariable:
    semantics: str
    context: str  # "" when contexts are erased
    reducer_op: str
    use_colors: tuple
    def_colors: tuple


@dataclasses.dataclass
class ReducedGraph:
    """What remains of a PS-PDG after removing a feature set."""

    nodes: list
    edges: list
    variables: list
    removed_features: tuple


def project(pspdg, removed_features):
    """Project ``pspdg`` to the representation lacking ``removed_features``."""
    removed = frozenset(removed_features)
    drop_hierarchy = FEATURE_HIERARCHICAL_UNDIRECTED in removed
    drop_contexts = FEATURE_CONTEXTS in removed
    # Traits, variables, and selectors are all context-parameterized in the
    # Table 1 grammar — (Kind, Context) — so removing contexts removes
    # them too: there is no way to say *where* they hold.
    drop_traits = FEATURE_TRAITS in removed or drop_contexts
    drop_selectors = FEATURE_SELECTORS in removed or drop_contexts
    drop_variables = FEATURE_VARIABLES in removed or drop_contexts

    nodes = []
    node_key = {}

    def context_tag(label):
        # With contexts removed every label collapses to the same blank tag;
        # presence of *some* context is not distinguishable either (a
        # context is just its identifier).
        return "" if drop_contexts else (label or "")

    for node in pspdg.all_nodes():
        if isinstance(node, HierarchicalNode) and drop_hierarchy:
            continue
        key = id(node)
        node_key[node] = key
        if isinstance(node, InstructionNode):
            color = _instruction_color(node.instruction)
        else:
            # Hierarchical nodes carry no intrinsic label in the Table 1
            # grammar (the builder's `kind` is implementation bookkeeping);
            # only traits/contexts/edges distinguish them.
            color = "hnode"
        traits = ()
        if not drop_traits and not (
            drop_hierarchy and isinstance(node, HierarchicalNode)
        ):
            traits = tuple(
                sorted((t.kind, context_tag(t.context)) for t in node.traits)
            )
        nodes.append(ReducedNode(key=key, color=color, traits=traits))

    # Parent links (hierarchy feature).
    if not drop_hierarchy:
        for node in pspdg.all_nodes():
            if node.parent is not None and node in node_key:
                parent = node.parent
                for reduced in nodes:
                    if reduced.key == node_key[node]:
                        reduced.parent = node_key.get(parent)
                        break

    def anchor_key(node):
        """Node key, falling back to leaf instructions when hierarchy is
        removed (edges re-anchor to member instructions)."""
        if node in node_key:
            return [node_key[node]]
        return [
            node_key[pspdg.node_of(inst)]
            for inst in node.leaf_instructions()
            if pspdg.node_of(inst) in node_key
        ]

    # Directed edges: the PDG's edges minus the relaxations of the
    # features kept.  A removed feature's relaxations are simply not
    # applied, so a dependence it had relaxed is indistinguishable from
    # one that was never relaxed (that indistinguishability IS the
    # necessity argument).
    restore_features = {
        relaxed for feature in removed for relaxed in RESTORED_BY[feature]
    }
    # PDG edge -> the carried contexts the kept features relaxed, plus
    # None when they relaxed its loop-independent instance.
    applied = {}
    for relaxation in pspdg.relaxations:
        if relaxation.feature not in restore_features:
            gone = applied.setdefault(relaxation.edge, set())
            gone.update(relaxation.carried_removed)
            if relaxation.loop_independent_removed:
                gone.add(None)

    accumulated = {}

    def edge_slot(src_key, dst_key, kind, mem_kind, obj):
        key = (src_key, dst_key, kind, mem_kind or "", id(obj))
        if key not in accumulated:
            accumulated[key] = {
                "src": src_key,
                "dst": dst_key,
                "kind": kind,
                "mem_kind": mem_kind or "",
                "intra": False,
                "carried": set(),
                "selector": "",
            }
        return accumulated[key]

    def add_edge(producer, consumer, kind, mem_kind, obj, intra, carried,
                 selector):
        for src in anchor_key(producer):
            for dst in anchor_key(consumer):
                slot = edge_slot(src, dst, kind, mem_kind, obj)
                slot["intra"] = slot["intra"] or intra
                slot["carried"].update(context_tag(c) for c in carried)
                if selector is not None and not drop_selectors:
                    slot["selector"] = (
                        f"{selector.kind}@{context_tag(selector.context)}"
                    )

    for edge in pspdg.pdg.edges:
        gone = applied.get(edge, ())
        intra = edge.loop_independent and None not in gone
        carried = [
            pspdg.context_of_loop[loop.header.name]
            for loop in edge.carried_loops
        ]
        carried = [label for label in carried if label not in gone]
        if not (intra or carried):
            continue
        # A selector belongs to an edge of the full PS-PDG.
        selector = pspdg.selectors.get(edge)
        if selector is not None and not any(pspdg.edge_state(edge)):
            selector = None
        add_edge(pspdg.node_of(edge.source), pspdg.node_of(edge.destination),
                 edge.kind, edge.mem_kind, edge.obj, intra, carried, selector)
    for producer, consumer in pspdg.sync_edges:
        add_edge(producer, consumer, "sync", None, None, True, (), None)

    edges = []
    for slot in accumulated.values():
        label = (
            f"{slot['kind']}/{slot['mem_kind']}/intra={slot['intra']}"
            f"/carried={tuple(sorted(slot['carried']))}"
            f"/sel={slot['selector']}"
        )
        edges.append(ReducedEdge(slot["src"], slot["dst"], True, label))

    if not drop_hierarchy:
        for uedge in pspdg.undirected_edges:
            label = f"undirected@{context_tag(uedge.context)}"
            for src in anchor_key(uedge.a):
                for dst in anchor_key(uedge.b):
                    edges.append(ReducedEdge(src, dst, False, label))

    variables = []
    if not drop_variables:
        for access in pspdg.accesses:
            variable = access.variable
            variables.append(
                ReducedVariable(
                    semantics=variable.semantics,
                    context=context_tag(variable.context),
                    reducer_op=variable.reducer_op or "",
                    use_colors=tuple(
                        sorted(
                            _instruction_color(i)
                            for node in access.use_nodes
                            for i in node.leaf_instructions()
                        )
                    ),
                    def_colors=tuple(
                        sorted(
                            _instruction_color(i)
                            for node in access.def_nodes
                            for i in node.leaf_instructions()
                        )
                    ),
                )
            )

    return ReducedGraph(
        nodes=nodes,
        edges=edges,
        variables=variables,
        removed_features=tuple(sorted(removed)),
    )


def without_hierarchical_and_undirected(pspdg):
    """Fig. 11-A projection: no hierarchical nodes, no undirected edges."""
    return project(pspdg, {FEATURE_HIERARCHICAL_UNDIRECTED})


def without_traits(pspdg):
    """Fig. 11-B projection: no node traits."""
    return project(pspdg, {FEATURE_TRAITS})


def without_contexts(pspdg):
    """Fig. 11-C projection: no contexts."""
    return project(pspdg, {FEATURE_CONTEXTS})


def without_selectors(pspdg):
    """Fig. 11-D projection: no data-selector directed edges."""
    return project(pspdg, {FEATURE_SELECTORS})


def without_variables(pspdg):
    """Fig. 11-E projection: no parallel semantic variables / use-def."""
    return project(pspdg, {FEATURE_VARIABLES})


def full(pspdg):
    """The identity projection (all features kept), for canonical forms."""
    return project(pspdg, set())


def _instruction_color(inst):
    parts = [inst.opcode]
    for attribute in ("op", "predicate", "kind"):
        value = getattr(inst, attribute, None)
        if isinstance(value, str):
            parts.append(value)
    from repro.ir.values import Constant

    for operand in inst.operands:
        if isinstance(operand, Constant):
            parts.append(repr(operand.value))
    return ":".join(parts)
