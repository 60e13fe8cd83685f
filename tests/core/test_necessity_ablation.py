"""Section 4 executable: the Fig. 11 necessity argument plus ablation laws."""

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.core import (
    full,
    project,
    signature,
    without_contexts,
    without_hierarchical_and_undirected,
    without_traits,
    without_variables,
)
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from repro.workloads.necessity import PAIRS, demonstrate


@pytest.mark.parametrize("pair", PAIRS, ids=[p.key for p in PAIRS])
class TestFig11:
    def test_full_representations_differ(self, pair):
        full_equal, _ = demonstrate(pair)
        assert not full_equal, (
            f"pair {pair.key}: the two programs have different parallel "
            f"semantics, so their full PS-PDGs must differ"
        )

    def test_reduced_representations_collapse(self, pair):
        _, reduced_equal = demonstrate(pair)
        assert reduced_equal, (
            f"pair {pair.key}: without {pair.feature} the two programs "
            f"must become indistinguishable"
        )

    def test_fast_and_slow_programs_execute(self, pair):
        from repro.emulator import run_source

        for source in pair.sources().values():
            result = run_source(source)
            assert result.steps > 0


class TestProjectionLaws:
    SOURCE = (
        "global h: int[4];\n"
        "func main() { var s: int = 0;\n"
        "pragma omp parallel_for reduction(+: s)\n"
        "for i in 0..8 {\n"
        "  s = s + i;\n"
        "  pragma omp critical\n"
        "  { h[i % 4] = h[i % 4] + 1; }\n"
        "}\nprint(s); }"
    )

    def _graph(self):
        module = compile_source(self.SOURCE)
        return PSPDGBuilder(
            pdg_from_analyses(
                FunctionAnalyses(module.function("main"), module)
            )
        ).build()

    def test_identity_projection_is_deterministic(self):
        g1 = self._graph()
        g2 = self._graph()
        assert signature(full(g1)) == signature(full(g2))

    def test_projection_is_stable(self):
        graph = self._graph()
        assert signature(without_traits(graph)) == signature(
            without_traits(graph)
        )

    def test_each_projection_differs_from_full(self):
        graph = self._graph()
        full_sig = signature(full(graph))
        for projection in (
            without_hierarchical_and_undirected,
            without_traits,
            without_contexts,
            without_variables,
        ):
            assert signature(projection(graph)) != full_sig

    def test_variables_dropped_without_psv(self):
        graph = self._graph()
        assert without_variables(graph).variables == []
        assert full(graph).variables != []

    def test_hierarchy_flattened_without_hn(self):
        graph = self._graph()
        reduced = without_hierarchical_and_undirected(graph)
        assert all(n.color != "hnode" for n in reduced.nodes)

    def test_without_contexts_drops_context_parameterized_features(self):
        graph = self._graph()
        reduced = without_contexts(graph)
        assert reduced.variables == []
        assert all(not n.traits for n in reduced.nodes)

    def test_project_accepts_multiple_features(self):
        graph = self._graph()
        reduced = project(graph, {"nt", "dsde"})
        assert reduced.removed_features == ("dsde", "nt")

    def test_same_representation_helper(self):
        # Without contexts there is nothing for a trait, selector or
        # variable to be parameterized by: removing them as well changes
        # nothing more.
        graph = self._graph()
        assert signature(project(graph, {"c"})) == signature(
            project(graph, {"c", "nt", "dsde", "psv"})
        )
        assert signature(project(graph, set())) == signature(full(graph))
