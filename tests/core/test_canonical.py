"""Canonical signatures: stability, sensitivity, permutation invariance."""

from repro.analysis.record import FunctionAnalyses
from repro.core.ablation import full
from repro.core.canonical import signature
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses


def sig_of(source):
    module = compile_source(source)
    graph = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(module.function("main"), module))
    ).build()
    return signature(full(graph))


BASE = (
    "global a: int[8];\n"
    "func main() { pragma omp for\nfor i in 0..8 { a[i] = i; } }"
)


def test_signature_is_deterministic():
    assert sig_of(BASE) == sig_of(BASE)


def test_signature_ignores_variable_names():
    renamed = BASE.replace("a:", "zz:").replace("a[", "zz[")
    assert sig_of(BASE) == sig_of(renamed)


def test_signature_sees_constants():
    changed = BASE.replace("a[i] = i;", "a[i] = i + 1;")
    assert sig_of(BASE) != sig_of(changed)


def test_signature_sees_directives():
    unannotated = BASE.replace("pragma omp for\n", "")
    assert sig_of(BASE) != sig_of(unannotated)


def test_signature_sees_clauses():
    with_clause = BASE.replace(
        "pragma omp for", "pragma omp for schedule(static)"
    )
    # schedule has no semantic content: graphs must match.
    assert sig_of(BASE) == sig_of(with_clause)


def test_signature_distinguishes_reduction_ops():
    sum_src = (
        "func main() { var s: int = 0;\n"
        "pragma omp for reduction(+: s)\n"
        "for i in 0..8 { s = s + i; }\nprint(s); }"
    )
    # A different reduction operator is a different parallel semantics
    # even though the loop body changes with it.
    max_src = (
        "func main() { var s: int = 0;\n"
        "pragma omp for reduction(max: s)\n"
        "for i in 0..8 { s = max(s, i); }\nprint(s); }"
    )
    assert sig_of(sum_src) != sig_of(max_src)


def test_statement_order_changes_signature_only_when_meaningful():
    two_stores = (
        "global a: int[8];\nglobal b: int[8];\n"
        "func main() { for i in 0..8 { a[i] = 1; b[i] = 2; } }"
    )
    swapped = (
        "global a: int[8];\nglobal b: int[8];\n"
        "func main() { for i in 0..8 { b[i] = 2; a[i] = 1; } }"
    )
    # Different constants flow to different arrays; the graphs differ
    # textually but are isomorphic up to renaming... except the constants
    # 1/2 pin the stores, so the signatures coincide iff the dependence
    # structure coincides — which it does (independent stores).
    assert sig_of(two_stores) == sig_of(swapped)
