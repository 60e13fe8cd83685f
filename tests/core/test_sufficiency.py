"""Section 5 / Appendix A executable: OpenMP and Cilk sufficiency.

For every supported construct, compile a representative program and verify
the built PS-PDG exhibits every feature the paper's mapping promises.
"""

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from support.sufficiency import missing_features

# Representative program per directive kind (the construct under test is
# always the *first* annotation in the main function).
CONSTRUCT_PROGRAMS = {
    "parallel": (
        "func main() { pragma omp parallel\n{ print(1); } }"
    ),
    "for": (
        "global a: int[4];\nfunc main() { pragma omp for\n"
        "for i in 0..4 { a[i] = i; } }"
    ),
    "parallel_for": (
        "global a: int[4];\nfunc main() { pragma omp parallel for\n"
        "for i in 0..4 { a[i] = i; } }"
    ),
    "taskloop": (
        "global a: int[4];\nfunc main() { pragma omp taskloop\n"
        "for i in 0..4 { a[i] = i; } }"
    ),
    "simd": (
        "global a: int[4];\nfunc main() { pragma omp simd\n"
        "for i in 0..4 { a[i] = i; } }"
    ),
    "sections": (
        "func main() { pragma omp sections\n{ print(1); } }"
    ),
    "section": (
        "func main() { pragma omp section\n{ print(1); } }"
    ),
    "task": (
        "global x: int;\nfunc main() { pragma omp task\n{ x = 1; } }"
    ),
    "critical": (
        "global h: int;\nfunc main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..4 {\n"
        "    pragma omp critical\n    { h = h + 1; }\n  }\n}"
    ),
    "atomic": (
        "global h: int;\nfunc main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..4 {\n"
        "    pragma omp atomic\n    { h = h + 1; }\n  }\n}"
    ),
    "ordered": (
        "global h: int;\nfunc main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..4 {\n"
        "    pragma omp ordered\n    { h = h + 1; }\n  }\n}"
    ),
    "single": (
        "func main() { pragma omp parallel\n{\n"
        "  pragma omp single\n  { print(1); }\n} }"
    ),
    "master": (
        "func main() { pragma omp parallel\n{\n"
        "  pragma omp master\n  { print(1); }\n} }"
    ),
    "barrier": (
        "global x: int;\nfunc main() { pragma omp parallel\n{\n"
        "  pragma omp task\n  { x = 1; }\n"
        "  pragma omp barrier\n} }"
    ),
    "taskwait": (
        "global x: int;\nfunc main() { pragma omp parallel\n{\n"
        "  pragma omp task\n  { x = 1; }\n"
        "  pragma omp taskwait\n} }"
    ),
}

CLAUSE_PROGRAMS = {
    "private": (
        "func main() { var t: int = 0;\n"
        "pragma omp parallel_for private(t)\n"
        "for i in 0..4 { t = i; } }"
    ),
    "firstprivate": (
        "global a: int[4];\nfunc main() { var t: int = 3;\n"
        "pragma omp parallel_for firstprivate(t)\n"
        "for i in 0..4 { a[i] = t; } }"
    ),
    "lastprivate": (
        "global a: int[4];\nfunc main() { var t: int = 0;\n"
        "pragma omp parallel_for lastprivate(t)\n"
        "for i in 0..4 { t = a[i]; }\nprint(t); }"
    ),
    "reduction": (
        "func main() { var s: int = 0;\n"
        "pragma omp parallel_for reduction(+: s)\n"
        "for i in 0..4 { s = s + i; }\nprint(s); }"
    ),
    "anyvalue": (
        "global a: int[4];\nfunc main() { var t: int = 0;\n"
        "pragma omp parallel_for anyvalue(t)\n"
        "for i in 0..4 { t = a[i]; }\nprint(t); }"
    ),
}

CILK_PROGRAMS = {
    "cilk_spawn": (
        "func w(x: int) -> int { return x * 2; }\n"
        "func main() { var r: int = 0; spawn r = w(5); sync; print(r); }"
    ),
    "cilk_sync": (
        "func w(x: int) -> int { return x * 2; }\n"
        "func main() { var r: int = 0; spawn r = w(5); sync; print(r); }"
    ),
    "cilk_for": (
        "global a: int[4];\n"
        "func main() { cilk_for i in 0..4 { a[i] = i; } }"
    ),
    "cilk_scope": (
        "func w(x: int) -> int { return x; }\n"
        "func main() { cilk_scope { var r: int = 0; spawn r = w(1); } }"
    ),
    "cilk_reducer": (
        "func main() { var s: int reducer(+) = 0;\n"
        "cilk_for i in 0..4 { s = s + i; }\nprint(s); }"
    ),
}


def _check(source, kind):
    module = compile_source(source)
    function = module.function("main")
    graph = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(function, module))
    ).build()
    annotation = next(
        a for a in function.annotations if a.directive.kind == kind
    )
    missing = missing_features(graph, annotation)
    assert not missing, (
        f"{kind}: PS-PDG lacks promised features {sorted(missing)}"
    )


@pytest.mark.parametrize("kind", sorted(CONSTRUCT_PROGRAMS))
def test_openmp_construct_maps_to_pspdg_features(kind):
    _check(CONSTRUCT_PROGRAMS[kind], kind)


@pytest.mark.parametrize("clause", sorted(CLAUSE_PROGRAMS))
def test_openmp_clause_maps_to_pspdg_features(clause):
    source = CLAUSE_PROGRAMS[clause]
    module = compile_source(source)
    function = module.function("main")
    graph = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(function, module))
    ).build()
    annotation = function.annotations[0]
    missing = missing_features(graph, annotation)
    assert not missing, f"{clause}: missing {sorted(missing)}"


@pytest.mark.parametrize("kind", sorted(CILK_PROGRAMS))
def test_cilk_construct_maps_to_pspdg_features(kind):
    source = CILK_PROGRAMS[kind]
    module = compile_source(source)
    function = module.function("main")
    graph = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(function, module))
    ).build()
    annotation = next(
        (a for a in function.annotations if a.directive.kind == kind), None
    )
    assert annotation is not None, f"no {kind} annotation was recorded"
    missing = missing_features(graph, annotation)
    assert not missing, f"{kind}: missing {sorted(missing)}"


def test_threadprivate_maps_to_privatizable_variable():
    module = compile_source(
        "global t: int;\npragma omp threadprivate(t)\n"
        "func main() { t = 1; print(t); }"
    )
    graph = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(module.function("main"), module))
    ).build()
    assert any(
        v.semantics == "privatizable" and v.context == ""
        for v in graph.variables
    )


def test_cilk_programs_execute_correctly():
    from repro.emulator import run_source

    assert run_source(CILK_PROGRAMS["cilk_spawn"]).formatted_output() == [
        "10"
    ]
    assert run_source(CILK_PROGRAMS["cilk_reducer"]).formatted_output() == [
        "6"
    ]
