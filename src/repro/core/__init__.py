"""repro.core — the Parallel Semantics Program Dependence Graph (PS-PDG).

The paper's primary contribution: Table 1 model (:mod:`repro.core.model`),
construction from annotated IR (:mod:`repro.core.builder`), the feature
ablations of Section 4 (:mod:`repro.core.ablation`), and canonical
signatures (:mod:`repro.core.canonical`).  The OpenMP/Cilk
sufficiency mapping of Section 5 / Appendix A is checked by the tests
(``tests/support/sufficiency.py``).
"""

from repro.core.ablation import (
    full,
    project,
    without_contexts,
    without_hierarchical_and_undirected,
    without_traits,
    without_variables,
)
from repro.core.canonical import signature
from repro.core.model import (
    DataSelector,
    HierarchicalNode,
    InstructionNode,
    PSPDG,
    Relaxation,
    Trait,
    TRAIT_ATOMIC,
    TRAIT_SINGULAR,
    TRAIT_UNORDERED,
    VAR_PRIVATIZABLE,
)

__all__ = [
    "full",
    "project",
    "without_contexts",
    "without_hierarchical_and_undirected",
    "without_traits",
    "without_variables",
    "signature",
    "DataSelector",
    "HierarchicalNode",
    "InstructionNode",
    "PSPDG",
    "Relaxation",
    "Trait",
    "TRAIT_ATOMIC",
    "TRAIT_SINGULAR",
    "TRAIT_UNORDERED",
    "VAR_PRIVATIZABLE",
]
