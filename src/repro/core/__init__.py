"""repro.core — the Parallel Semantics Program Dependence Graph (PS-PDG).

The paper's primary contribution: Table 1 model (:mod:`repro.core.model`),
construction from annotated IR (:mod:`repro.core.builder`), the feature
ablations of Section 4 (:mod:`repro.core.ablation`), and canonical
signatures (:mod:`repro.core.canonical`).  The OpenMP/Cilk
sufficiency mapping of Section 5 / Appendix A is checked by the tests
(``tests/support/sufficiency.py``).
"""

from repro.core.ablation import (
    ALL_FEATURES,
    FEATURE_CONTEXTS,
    FEATURE_HIERARCHICAL_UNDIRECTED,
    FEATURE_SELECTORS,
    FEATURE_TRAITS,
    FEATURE_VARIABLES,
    ReducedGraph,
    full,
    project,
    without_contexts,
    without_hierarchical_and_undirected,
    without_selectors,
    without_traits,
    without_variables,
)
from repro.core.builder import PSPDGBuilder, loop_context_label
from repro.core.canonical import signature
from repro.core.model import (
    DataSelector,
    DirectedEdge,
    HierarchicalNode,
    InstructionNode,
    Node,
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
    VariableAccess,
)

__all__ = [
    "ALL_FEATURES",
    "FEATURE_CONTEXTS",
    "FEATURE_HIERARCHICAL_UNDIRECTED",
    "FEATURE_SELECTORS",
    "FEATURE_TRAITS",
    "FEATURE_VARIABLES",
    "ReducedGraph",
    "full",
    "project",
    "without_contexts",
    "without_hierarchical_and_undirected",
    "without_selectors",
    "without_traits",
    "without_variables",
    "PSPDGBuilder",
    "loop_context_label",
    "signature",
    "DataSelector",
    "DirectedEdge",
    "HierarchicalNode",
    "InstructionNode",
    "Node",
    "PSPDG",
    "Relaxation",
    "SELECTOR_ALL_CONSUMERS",
    "SELECTOR_ANY_PRODUCER",
    "SELECTOR_LAST_PRODUCER",
    "Trait",
    "TRAIT_ATOMIC",
    "TRAIT_SINGULAR",
    "TRAIT_UNORDERED",
    "UndirectedEdge",
    "VAR_PRIVATIZABLE",
    "VAR_REDUCIBLE",
    "Variable",
    "VariableAccess",
]
