"""PS-PDG model unit tests (Table 1 structures)."""

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.core.model import (
    DataSelector,
    HierarchicalNode,
    InstructionNode,
    PSPDG,
    Relaxation,
    Trait,
    TRAIT_ATOMIC,
    TRAIT_SINGULAR,
)
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from support.sufficiency import is_context


def small_graph():
    module = compile_source("func main() { print(1); }")
    function = module.function("main")
    graph = PSPDG(pdg_from_analyses(FunctionAnalyses(function, module)))
    return graph, function


class TestTraits:
    def test_unknown_trait_kind_rejected(self):
        with pytest.raises(ValueError):
            Trait("fuzzy", "ctx")

    def test_traits_deduplicate(self):
        node = HierarchicalNode("region", context_label="c0")
        node.add_trait(Trait(TRAIT_ATOMIC, "c1"))
        node.add_trait(Trait(TRAIT_ATOMIC, "c1"))
        assert len(node.traits) == 1

    def test_has_trait_with_and_without_context(self):
        node = HierarchicalNode("region", context_label="c0")
        node.add_trait(Trait(TRAIT_SINGULAR, "c1"))
        node.add_trait(Trait(TRAIT_SINGULAR, "c2"))
        # A trait holds in one context: the same kind in another is a
        # second trait, not a duplicate.
        assert node.traits == [
            Trait(TRAIT_SINGULAR, "c1"), Trait(TRAIT_SINGULAR, "c2")
        ]
        assert Trait(TRAIT_SINGULAR, "c3") not in node.traits
        assert Trait(TRAIT_ATOMIC, "c1") not in node.traits


class TestSelectors:
    def test_unknown_selector_kind_rejected(self):
        with pytest.raises(ValueError):
            DataSelector("whichever", "ctx")

    def test_selectors_are_value_objects(self):
        assert DataSelector("any_producer", "c") == DataSelector(
            "any_producer", "c"
        )


class TestRelaxations:
    def test_unknown_relaxation_feature_rejected(self):
        # A misspelled feature would slip past every view's filter and
        # put the dependence back into the PS-PDG view.
        with pytest.raises(ValueError):
            Relaxation(None, "ctx", "indepedence")


class TestHierarchy:
    def test_leaf_instructions_recurse(self):
        graph, function = small_graph()
        outer = HierarchicalNode("outer", context_label="o")
        inner = HierarchicalNode("inner", context_label="i")
        outer.add_child(inner)
        insts = list(function.instructions())
        for inst in insts:
            inner.add_child(InstructionNode(inst))
        assert set(outer.leaf_instructions()) == set(insts)

    def test_ancestors_chain(self):
        outer = HierarchicalNode("outer", context_label="o")
        inner = HierarchicalNode("inner", context_label="i")
        leaf = HierarchicalNode("leaf", context_label="l")
        outer.add_child(inner)
        inner.add_child(leaf)
        chain, node = [], leaf.parent
        while node is not None:
            chain.append(node.kind)
            node = node.parent
        assert chain == ["inner", "outer"]
        assert outer.children == [inner] and inner.children == [leaf]

    def test_unlabeled_hierarchical_node_is_not_context(self):
        node = HierarchicalNode("region")
        assert not is_context(node)

    def test_register_context_requires_label(self):
        graph, _ = small_graph()
        with pytest.raises(ValueError):
            graph.register_context(HierarchicalNode("region"))


class TestContextChains:
    def test_chain_walks_enclosing_contexts(self):
        module = compile_source(
            "func main() {\n"
            "  pragma omp parallel\n"
            "  {\n"
            "    pragma omp for\n"
            "    for i in 0..4 { }\n"
            "  }\n"
            "}"
        )
        graph = PSPDGBuilder(
            pdg_from_analyses(
                FunctionAnalyses(module.function("main"), module)
            )
        ).build()
        loop_label = next(iter(graph.context_of_loop.values()))
        chain = graph.context_chain(loop_label)
        # loop -> for annotation -> parallel annotation -> "" (program).
        assert chain[-1] == ""
        assert len(chain) >= 3

    def test_variables_for_context_inherit_outer(self):
        module = compile_source(
            "global t: int;\npragma omp threadprivate(t)\n"
            "func main() { pragma omp for\nfor i in 0..4 { t = i; } }"
        )
        graph = PSPDGBuilder(
            pdg_from_analyses(
                FunctionAnalyses(module.function("main"), module)
            )
        ).build()
        loop_label = next(iter(graph.context_of_loop.values()))
        chain = graph.context_chain(loop_label)
        names = {v.name for v in graph.variables if v.context in chain}
        assert "t" in names  # program-wide threadprivate applies everywhere
