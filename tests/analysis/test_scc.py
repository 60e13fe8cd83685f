"""Tarjan SCC, checked against networkx on random graphs."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scc import strongly_connected_components


def test_straight_line_is_singletons():
    succs = {1: [2], 2: [3], 3: []}
    components = strongly_connected_components([1, 2, 3], succs)
    assert [sorted(c) for c in components] == [[3], [2], [1]]


def test_cycle_collapses():
    succs = {1: [2], 2: [3], 3: [1]}
    components = strongly_connected_components([1, 2, 3], succs)
    assert len(components) == 1
    assert sorted(components[0]) == [1, 2, 3]


def test_two_sccs_with_bridge():
    succs = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
    components = strongly_connected_components([1, 2, 3, 4], succs)
    assert sorted(sorted(c) for c in components) == [[1, 2], [3, 4]]


def test_reverse_topological_order():
    succs = {"a": ["b"], "b": ["c"], "c": []}
    components = strongly_connected_components(["a", "b", "c"], succs)
    # Tarjan emits sinks first.
    assert components == [["c"], ["b"], ["a"]]


def test_self_loop_is_its_own_scc():
    succs = {1: [1, 2], 2: []}
    components = strongly_connected_components([1, 2], succs)
    assert [sorted(c) for c in components] == [[2], [1]]


def test_condensation_edges():
    succs = {1: [2], 2: [1, 3], 3: []}
    components = strongly_connected_components([1, 2, 3], succs)
    component_of = {
        node: index
        for index, component in enumerate(components)
        for node in component
    }
    assert component_of[1] == component_of[2]
    assert component_of[3] != component_of[1]
    edges = {
        (component_of[node], component_of[succ])
        for node in succs for succ in succs[node]
        if component_of[node] != component_of[succ]
    }
    assert edges == {(component_of[1], component_of[3])}
    # Reverse topological: an edge between components points backward.
    assert all(src > dst for src, dst in edges)


@st.composite
def random_digraph(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    edges = []
    for a in range(n):
        for b in range(n):
            if a != b and draw(st.booleans()) and density > 0.1:
                edges.append((a, b))
    succs = {i: [] for i in range(n)}
    for a, b in edges:
        succs[a].append(b)
    return succs


@given(random_digraph())
@settings(max_examples=60, deadline=None)
def test_matches_networkx(succs):
    nodes = list(succs)
    ours = strongly_connected_components(nodes, succs)
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    for a, targets in succs.items():
        for b in targets:
            graph.add_edge(a, b)
    theirs = {frozenset(c) for c in nx.strongly_connected_components(graph)}
    assert {frozenset(c) for c in ours} == theirs
    # Every node appears exactly once.
    flat = [n for c in ours for n in c]
    assert sorted(flat) == sorted(nodes)
