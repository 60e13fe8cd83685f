"""Sufficiency of the PS-PDG for OpenMP (§5) and Cilk (Appendix A).

The paper groups the targeted OpenMP 5.0 subset into three semantic
families and shows each maps onto PS-PDG features.  This module encodes the
mapping as data (:data:`OPENMP_FEATURE_MAP`, :data:`CILK_FEATURE_MAP`) and
provides :func:`expected_features`/:func:`realized_features` so tests can
verify, construct by construct, that the builder actually produces the
features the mapping promises — an executable version of the sufficiency
argument.  Only the tests read it (``tests/core/test_sufficiency.py``).

Excluded feature groups (per the paper): execution control, target offload,
runtime calls, tooling; Cilk inlets, array operations, elemental functions,
and the simd pragma (``cilk simd`` ≡ ``omp simd``); clauses that only tune
the *amount* of parallelism (num_threads, grainsize, schedule/chunk) map to
no semantic feature.
"""

from repro.core.model import (
    TRAIT_ATOMIC,
    TRAIT_SINGULAR,
    TRAIT_UNORDERED,
)

def is_context(node):
    """Whether a hierarchical node is a context: labeled ones are (§3.3)."""
    return node.context_label is not None


# Feature atoms used in the mapping.
F_HIERARCHICAL = "hierarchical_node"
F_CONTEXT = "context"
F_UNDIRECTED = "undirected_edge"
F_DIRECTED = "directed_edge"
F_TRAIT_ATOMIC = f"trait:{TRAIT_ATOMIC}"
F_TRAIT_SINGULAR = f"trait:{TRAIT_SINGULAR}"
F_TRAIT_UNORDERED = f"trait:{TRAIT_UNORDERED}"
F_VAR_PRIVATIZABLE = "variable:privatizable"
F_VAR_REDUCIBLE = "variable:reducible"
F_SEL_ANY = "selector:any_producer"
F_SEL_LAST = "selector:last_producer"
F_SEL_ALL = "selector:all_consumers"
F_INDEPENDENCE = "independence_relaxation"
F_SYNC = "sync_edge"

# §5.1 declaration of independence; §5.2 data properties; §5.3 ordering.
OPENMP_FEATURE_MAP = {
    "parallel": {F_HIERARCHICAL, F_CONTEXT},
    "for": {F_HIERARCHICAL, F_CONTEXT, F_INDEPENDENCE},
    "parallel_for": {F_HIERARCHICAL, F_CONTEXT, F_INDEPENDENCE},
    "taskloop": {F_HIERARCHICAL, F_CONTEXT, F_INDEPENDENCE},
    "simd": {F_HIERARCHICAL, F_CONTEXT, F_INDEPENDENCE},
    "sections": {F_HIERARCHICAL, F_CONTEXT},
    "section": {F_HIERARCHICAL, F_CONTEXT},
    "task": {F_HIERARCHICAL, F_CONTEXT},
    "barrier": {F_SYNC},
    "taskwait": {F_SYNC},
    "critical": {F_HIERARCHICAL, F_UNDIRECTED, F_TRAIT_ATOMIC},
    "atomic": {F_HIERARCHICAL, F_UNDIRECTED, F_TRAIT_ATOMIC},
    "ordered": {F_HIERARCHICAL, F_DIRECTED},
    "single": {F_HIERARCHICAL, F_TRAIT_SINGULAR, F_CONTEXT},
    "master": {F_HIERARCHICAL, F_TRAIT_SINGULAR, F_CONTEXT},
    "threadprivate": {F_VAR_PRIVATIZABLE},
}

# Clause-level mapping (§5.2).
OPENMP_CLAUSE_FEATURE_MAP = {
    "private": {F_VAR_PRIVATIZABLE},
    "firstprivate": {F_VAR_PRIVATIZABLE, F_SEL_ALL},
    "lastprivate": {F_VAR_PRIVATIZABLE, F_SEL_LAST},
    "reduction": {F_VAR_REDUCIBLE},
    "anyvalue": {F_SEL_ANY, F_VAR_PRIVATIZABLE},
}

# Appendix A: Cilk constructs.
CILK_FEATURE_MAP = {
    "cilk_spawn": {F_HIERARCHICAL, F_CONTEXT},
    "cilk_sync": {F_SYNC},
    "cilk_scope": {F_HIERARCHICAL, F_CONTEXT},
    "cilk_for": {F_HIERARCHICAL, F_CONTEXT, F_INDEPENDENCE},
    "cilk_reducer": {F_VAR_REDUCIBLE},
}


def expected_features(directive):
    """PS-PDG features one directive (with its clauses) should produce."""
    mapping = {**OPENMP_FEATURE_MAP, **CILK_FEATURE_MAP}
    features = set(mapping.get(directive.kind, set()))
    clauses = directive.clauses
    if clauses.private:
        features |= OPENMP_CLAUSE_FEATURE_MAP["private"]
    if clauses.firstprivate:
        features |= OPENMP_CLAUSE_FEATURE_MAP["firstprivate"]
    if clauses.lastprivate:
        features |= OPENMP_CLAUSE_FEATURE_MAP["lastprivate"]
    if clauses.reductions:
        features |= OPENMP_CLAUSE_FEATURE_MAP["reduction"]
    if clauses.anyvalue:
        features |= OPENMP_CLAUSE_FEATURE_MAP["anyvalue"]
    return features


def realized_features(pspdg, annotation):
    """Features the built PS-PDG actually exhibits for one annotation."""
    features = set()
    node = None
    for hnode in pspdg.hierarchical_nodes():
        if hnode.source_uid == annotation.uid:
            node = hnode
            break
    if node is not None:
        features.add(F_HIERARCHICAL)
        if is_context(node):
            features.add(F_CONTEXT)
        for trait in node.traits:
            features.add(f"trait:{trait.kind}")
        for uedge in pspdg.undirected_edges:
            if uedge.a is node or uedge.b is node:
                features.add(F_UNDIRECTED)
        members = set(node.leaf_instructions())
        for edge in pspdg.directed_edges:
            if edge.producer is node or edge.consumer is node:
                if edge.kind == "sync":
                    features.add(F_SYNC)
                else:
                    features.add(F_DIRECTED)
                continue
            # Ordered regions keep *instruction-level* directed carried
            # dependences among their members: that is the directed-edge
            # feature in action.
            sources = set(edge.producer.leaf_instructions())
            destinations = set(edge.consumer.leaf_instructions())
            if (
                edge.carried_contexts
                and sources <= members
                and destinations <= members
            ):
                features.add(F_DIRECTED)

    for relaxation in pspdg.relaxations:
        chain = {annotation.uid}
        if annotation.loop_header is not None:
            chain.add(f"loop:{annotation.loop_header}")
        if relaxation.context in chain:
            if relaxation.feature == "independence":
                features.add(F_INDEPENDENCE)
            elif relaxation.feature == "undirected":
                features.add(F_UNDIRECTED)

    for variable in pspdg.variables:
        contexts = {annotation.uid}
        if annotation.loop_header is not None:
            contexts.add(f"loop:{annotation.loop_header}")
        if variable.context in contexts:
            features.add(f"variable:{variable.semantics}")

    for edge in pspdg.directed_edges:
        if edge.selector is not None and edge.selector.context == annotation.uid:
            features.add(f"selector:{edge.selector.kind}")

    # Sync edges may target the annotation's node even when the node holds
    # no other features (barrier/taskwait/cilk_sync).
    if node is not None:
        for edge in pspdg.directed_edges:
            if edge.kind == "sync" and (
                edge.consumer is node or edge.producer is node
            ):
                features.add(F_SYNC)
    return features


def missing_features(pspdg, annotation):
    """Expected-but-not-realized features (empty = sufficiency holds)."""
    expected = expected_features(annotation.directive)
    realized = realized_features(pspdg, annotation)
    missing = set()
    for feature in expected:
        if feature in realized:
            continue
        # Independence/variable/selector features are only observable when
        # the loop actually has dependences to relax or live-outs to
        # select; treat "nothing to relax" as satisfied.
        if feature == F_INDEPENDENCE:
            continue
        missing.add(feature)
    return missing
