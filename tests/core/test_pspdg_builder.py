"""PS-PDG construction: hierarchy, contexts, traits, edges, variables."""

from collections import Counter

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.core.model import (
    TRAIT_ATOMIC,
    TRAIT_SINGULAR,
    TRAIT_UNORDERED,
    VAR_PRIVATIZABLE,
)
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from repro.session import Session
from support.overlay import directed_edges
from support.recording import ScanCounter
from support.sufficiency import hierarchical_nodes, is_context


def pspdg_for(source):
    module = compile_source(source)
    return PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(module.function("main"), module))
    ).build()


class TestHierarchy:
    def test_loops_become_labeled_contexts(self):
        graph = pspdg_for("func main() { for i in 0..4 { } }")
        loop_nodes = [
            n for n in hierarchical_nodes(graph) if n.kind == "loop"
        ]
        assert len(loop_nodes) == 1
        assert is_context(loop_nodes[0])
        assert loop_nodes[0].context_label in graph.contexts

    def test_regions_nest_inside_loops_and_parallels(self):
        graph = pspdg_for(
            "global h: int[4];\n"
            "func main() {\n"
            "  pragma omp parallel_for\n"
            "  for i in 0..4 {\n"
            "    pragma omp critical\n"
            "    { h[0] = h[0] + 1; }\n"
            "  }\n"
            "}"
        )
        critical = next(
            n for n in hierarchical_nodes(graph) if n.kind == "critical"
        )
        ancestor_kinds = set()
        node = critical.parent
        while node is not None:
            ancestor_kinds.add(node.kind)
            node = node.parent
        assert "loop" in ancestor_kinds
        assert "parallel_for" in ancestor_kinds

    def test_instructions_attach_to_innermost_region(self):
        graph = pspdg_for(
            "func main() { for i in 0..4 { print(i); } }"
        )
        printer = next(
            inst
            for inst in graph.instruction_nodes
            if inst.opcode == "print"
        )
        node = graph.node_of(printer)
        assert node.parent.kind == "loop"

    def test_statistics_cover_features(self):
        graph = pspdg_for(
            "func main() { var s: int = 0;\n"
            "pragma omp parallel_for reduction(+: s)\n"
            "for i in 0..4 { s = s + i; }\nprint(s); }"
        )
        stats = graph.statistics()
        assert stats["hierarchical_nodes"] >= 2
        assert stats["reducible"] == 1
        assert stats["relaxations"] > 0


class TestWorksharingSemantics:
    def test_carried_dependences_removed_in_context(self):
        graph = pspdg_for(
            "global a: int[8];\nglobal k: int[8];\n"
            "func main() {\n"
            "  pragma omp parallel_for\n"
            "  for i in 0..8 { a[k[i]] = a[k[i]] + 1; }\n"
            "}"
        )
        loop_label = next(iter(graph.context_of_loop.values()))
        carried = [
            e
            for e in directed_edges(graph)
            if loop_label in e.carried_contexts
        ]
        assert carried == []
        assert any(
            r.feature == "independence" for r in graph.relaxations
        )

    def test_unannotated_loop_keeps_dependences(self):
        graph = pspdg_for(
            "global a: int[8];\nglobal k: int[8];\n"
            "func main() { for i in 0..8 { a[k[i]] = a[k[i]] + 1; } }"
        )
        loop_label = next(iter(graph.context_of_loop.values()))
        carried = [
            e
            for e in directed_edges(graph)
            if loop_label in e.carried_contexts
        ]
        assert carried

    def test_context_scoping_of_inner_annotation(self):
        # Outer loop's carried deps survive when only the inner loop is
        # annotated (the independence is valid only in the inner context).
        graph = pspdg_for(
            "global a: int[8];\nglobal k: int[8];\n"
            "func main() {\n"
            "  for t in 0..2 {\n"
            "    pragma omp for\n"
            "    for i in 0..8 { a[k[i]] = a[k[i]] + 1; }\n"
            "  }\n"
            "}"
        )
        outer_label = next(
            label
            for header, label in graph.context_of_loop.items()
            if header == "for.header"
        )
        outer_carried = [
            e
            for e in directed_edges(graph)
            if outer_label in e.carried_contexts
        ]
        assert outer_carried


class TestOrderingSemantics:
    CRITICAL = (
        "global h: int[4];\n"
        "func main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..8 {\n"
        "    pragma omp critical\n"
        "    { h[i % 4] = h[i % 4] + 1; }\n"
        "  }\n"
        "}"
    )

    def test_critical_gets_atomic_and_unordered_traits(self):
        graph = pspdg_for(self.CRITICAL)
        critical = next(
            n for n in hierarchical_nodes(graph) if n.kind == "critical"
        )
        kinds = {trait.kind for trait in critical.traits}
        assert {TRAIT_ATOMIC, TRAIT_UNORDERED} <= kinds

    def test_critical_produces_undirected_self_edge(self):
        graph = pspdg_for(self.CRITICAL)
        assert graph.undirected_edges
        edge = graph.undirected_edges[0]
        assert edge.a is edge.b

    def test_ordered_region_keeps_directed_dependences(self):
        graph = pspdg_for(self.CRITICAL.replace("omp critical", "omp ordered"))
        assert not graph.undirected_edges
        loop_label = next(iter(graph.context_of_loop.values()))
        carried = [
            e
            for e in directed_edges(graph)
            if loop_label in e.carried_contexts
        ]
        assert carried

    def test_single_gets_singular_trait(self):
        graph = pspdg_for(
            "func main() {\n"
            "  pragma omp parallel\n"
            "  {\n"
            "    pragma omp single\n"
            "    { print(1); }\n"
            "  }\n"
            "}"
        )
        single = next(
            n for n in hierarchical_nodes(graph) if n.kind == "single"
        )
        assert TRAIT_SINGULAR in {trait.kind for trait in single.traits}

    def test_same_name_criticals_share_lock(self):
        graph = pspdg_for(
            "global a: int;\nglobal b: int;\n"
            "func main() {\n"
            "  pragma omp parallel_for\n"
            "  for i in 0..4 {\n"
            "    pragma omp critical(lock)\n"
            "    { a = a + 1; }\n"
            "    pragma omp critical(lock)\n"
            "    { b = b + 1; }\n"
            "  }\n"
            "}"
        )
        cross = [
            e for e in graph.undirected_edges if e.a is not e.b
        ]
        assert cross, "same-name criticals must be linked"

    @staticmethod
    def _two_sections(second):
        return (
            "global x: int;\nglobal a: int[16];\n"
            "func main() {\n"
            "  pragma omp parallel_for\n"
            "  for i in 0..16 {\n"
            "    pragma omp critical(L)\n"
            "    { x = x + a[i]; }\n"
            "    a[i] = i;\n"
            f"    pragma omp critical({second})\n"
            "    { x = x * 2; }\n"
            "  }\n"
            "}"
        )

    @pytest.mark.parametrize(
        "second, features, undirected",
        [
            ("L", {"variable": 11, "undirected": 6}, 3),
            ("M", {"variable": 11, "independence": 6, "undirected": 6}, 2),
        ],
    )
    def test_cross_section_edges_under_one_lock_stay_ordered(
        self, second, features, undirected
    ):
        """Carried edges between two sections of one lock are left to
        the lock, not relaxed as loop independence; a second lock
        leaves them to the worksharing annotation.  Either way the
        loop plans as DOALL."""
        source = self._two_sections(second)
        graph = pspdg_for(source)
        relaxed = Counter(r.feature for r in graph.relaxations)
        assert relaxed == features
        assert len(graph.undirected_edges) == undirected
        plan = Session.from_source(source).plan("PS-PDG")
        assert [p.technique for p in plan.loop_plans.values()] == ["DOALL"]


class TestVariables:
    def test_reduction_variable(self):
        graph = pspdg_for(
            "func main() { var s: int = 0;\n"
            "pragma omp parallel_for reduction(+: s)\n"
            "for i in 0..4 { s = s + i; }\nprint(s); }"
        )
        reducible = [v for v in graph.variables if v.is_reducible()]
        assert len(reducible) == 1
        assert reducible[0].reducer_op == "+"
        access = next(
            a for a in graph.accesses if a.variable is reducible[0]
        )
        assert access.use_nodes and access.def_nodes

    def test_threadprivate_global(self):
        graph = pspdg_for(
            "global t: int[4];\npragma omp threadprivate(t)\n"
            "func main() { t[0] = 1; print(t[0]); }"
        )
        assert any(
            v.semantics == VAR_PRIVATIZABLE and v.context == ""
            for v in graph.variables
        )

    def test_induction_variable_registered(self):
        graph = pspdg_for(
            "func main() { pragma omp for\nfor i in 0..4 { } }"
        )
        names = {v.name for v in graph.variables}
        assert "i" in names

    def test_private_array_variable(self):
        graph = pspdg_for(
            "global v: float[64];\n"
            "func main() {\n"
            "  var t: float[8];\n"
            "  pragma omp parallel_for private(t)\n"
            "  for p in 0..8 {\n"
            "    for j in 0..8 { t[j] = v[p * 8 + j]; }\n"
            "    for j in 0..8 { v[p * 8 + j] = t[j] * 2.0; }\n"
            "  }\n"
            "}"
        )
        private = [
            v for v in graph.variables
            if v.semantics == VAR_PRIVATIZABLE and v.name == "t"
        ]
        assert private
        # Carried deps on t at the annotated loop are relaxed as variable
        # semantics (the J&K view must not replay them).
        assert any(r.feature == "variable" for r in graph.relaxations)


class TestSelectors:
    def test_lastprivate_selector(self):
        graph = pspdg_for(
            "global a: int[8];\n"
            "func main() { var v: int = 0;\n"
            "pragma omp parallel_for lastprivate(v)\n"
            "for i in 0..8 { v = a[i]; }\nprint(v); }"
        )
        selectors = [
            e.selector.kind
            for e in directed_edges(graph)
            if e.selector is not None
        ]
        assert "last_producer" in selectors

    def test_anyvalue_selector(self):
        graph = pspdg_for(
            "global a: int[8];\n"
            "func main() { var v: int = 0;\n"
            "pragma omp parallel_for anyvalue(v)\n"
            "for i in 0..8 { v = a[i]; }\nprint(v); }"
        )
        selectors = [
            e.selector.kind
            for e in directed_edges(graph)
            if e.selector is not None
        ]
        assert "any_producer" in selectors

    def test_firstprivate_selector(self):
        graph = pspdg_for(
            "global a: int[8];\n"
            "func main() { var seed: int = 3;\n"
            "pragma omp parallel_for firstprivate(seed)\n"
            "for i in 0..8 { a[i] = seed; }\nprint(a[0]); }"
        )
        selectors = [
            e.selector.kind
            for e in directed_edges(graph)
            if e.selector is not None
        ]
        assert "all_consumers" in selectors


class TestTasks:
    def test_independent_tasks_lose_cross_edges(self):
        graph = pspdg_for(
            "global x: int;\nglobal y: int;\n"
            "func main() {\n"
            "  pragma omp parallel\n"
            "  {\n"
            "    pragma omp task\n"
            "    { x = 1; }\n"
            "    pragma omp task\n"
            "    { x = 2; }\n"
            "  }\n"
            "  print(x);\n"
            "}"
        )
        assert any(r.feature == "task" for r in graph.relaxations)

    def test_depend_clauses_preserve_order(self):
        graph = pspdg_for(
            "global x: int;\n"
            "func main() {\n"
            "  pragma omp parallel\n"
            "  {\n"
            "    pragma omp task depend(out: x)\n"
            "    { x = 1; }\n"
            "    pragma omp task depend(in: x)\n"
            "    { print(x); }\n"
            "  }\n"
            "}"
        )
        assert not any(r.feature == "task" for r in graph.relaxations)

    def test_barrier_gets_sync_edges(self):
        graph = pspdg_for(
            "global x: int;\n"
            "func main() {\n"
            "  pragma omp parallel\n"
            "  {\n"
            "    pragma omp task\n"
            "    { x = 1; }\n"
            "    pragma omp barrier\n"
            "    pragma omp task\n"
            "    { x = 2; }\n"
            "  }\n"
            "}"
        )
        sync_edges = [e for e in directed_edges(graph) if e.kind == "sync"]
        assert sync_edges


def _walks(loops):
    """(walks of ``pdg.edges``, walks of the memory edges) in one build
    over ``loops`` annotated loops."""
    body = "".join(
        "  pragma omp parallel_for\n"
        f"  for i in 0..8 {{ a[k[i]] = a[k[i]] + {n}; }}\n"
        for n in range(loops)
    )
    module = compile_source(
        f"global a: int[8];\nglobal k: int[8];\nfunc main() {{\n{body}}}"
    )
    analyses = FunctionAnalyses(module.function("main"), module)
    pdg = pdg_from_analyses(analyses)
    pdg.edges = ScanCounter(pdg.edges)
    analyses.dependences = ScanCounter(analyses.dependences)
    graph = PSPDGBuilder(pdg).build()
    assert len(graph.context_of_loop) == loops
    assert Counter(r.feature for r in graph.relaxations)["independence"] > 0
    return pdg.edges.scans, analyses.dependences.scans


def test_one_build_files_the_memory_edges_once():
    """The builder never walks the PDG's edges, and the memory edges are
    filed by loop once, not once per annotation."""
    assert _walks(1) == _walks(8) == (0, 1)
