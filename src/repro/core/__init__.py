"""repro.core — the Parallel Semantics Program Dependence Graph (PS-PDG).

The paper's primary contribution: Table 1 model (:mod:`repro.core.model`),
construction from annotated IR (:mod:`repro.core.builder`), the feature
ablations of Section 4 (:mod:`repro.core.ablation`), and canonical
signatures (:mod:`repro.core.canonical`).  The OpenMP/Cilk
sufficiency mapping of Section 5 / Appendix A is checked by the tests
(``tests/support/sufficiency.py``).
"""
