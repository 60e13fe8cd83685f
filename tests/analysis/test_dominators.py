"""Dominator/postdominator trees, including a property check vs a naive
fixed-point dominator computation on random CFGs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    compute_dominator_tree,
    compute_postdominator_tree,
)
from repro.frontend import compile_source
from repro.ir import Function, IRBuilder


def diamond_function():
    """entry -> (left | right) -> merge -> exit"""
    function = Function("f")
    entry = function.create_block("entry")
    left = function.create_block("left")
    right = function.create_block("right")
    merge = function.create_block("merge")
    builder = IRBuilder(entry)
    cond = builder.cmp("lt", builder.int(1), builder.int(2))
    builder.branch(cond, left, right)
    IRBuilder(left).jump(merge)
    IRBuilder(right).jump(merge)
    IRBuilder(merge).ret()
    return function, entry, left, right, merge


class TestDominators:
    def test_entry_dominates_all(self):
        function, entry, left, right, merge = diamond_function()
        tree = compute_dominator_tree(function)
        for block in (left, right, merge):
            assert tree.dominates(entry, block)

    def test_branches_do_not_dominate_merge(self):
        function, entry, left, right, merge = diamond_function()
        tree = compute_dominator_tree(function)
        assert not tree.dominates(left, merge)
        assert not tree.dominates(right, merge)
        assert tree.idom[merge] is entry

    def test_dominance_is_reflexive(self):
        function, entry, *_ = diamond_function()
        tree = compute_dominator_tree(function)
        assert tree.dominates(entry, entry)

    def test_strict_dominance_excludes_self(self):
        function, entry, *_ = diamond_function()
        tree = compute_dominator_tree(function)
        assert not tree.strictly_dominates(entry, entry)

    def test_loop_header_dominates_body(self):
        module = compile_source("func main() { for i in 0..4 { print(i); } }")
        function = module.function("main")
        tree = compute_dominator_tree(function)
        header = function.block("for.header")
        body = function.block("for.body")
        latch = function.block("for.latch")
        assert tree.dominates(header, body)
        assert tree.dominates(header, latch)

    def test_dominators_of_chain(self):
        function, entry, left, right, merge = diamond_function()
        tree = compute_dominator_tree(function)
        chain = [merge]
        while tree.idom[chain[-1]] is not chain[-1]:
            chain.append(tree.idom[chain[-1]])
        assert chain == [merge, entry]
        assert tree.root is entry


class TestPostdominators:
    def test_merge_postdominates_branches(self):
        function, entry, left, right, merge = diamond_function()
        tree, _exit = compute_postdominator_tree(function)
        assert tree.dominates(merge, entry)
        assert tree.dominates(merge, left)

    def test_branch_arms_do_not_postdominate_entry(self):
        function, entry, left, right, merge = diamond_function()
        tree, _exit = compute_postdominator_tree(function)
        assert not tree.dominates(left, entry)

    def test_virtual_exit_is_root(self):
        function, entry, *_ = diamond_function()
        tree, exit_node = compute_postdominator_tree(function)
        assert tree.root is exit_node


def _naive_dominators(entry, succs):
    """Textbook O(n^2) iterative dominator sets, as the oracle."""
    nodes = list(succs)
    preds = {n: [] for n in nodes}
    for n in nodes:
        for s in succs[n]:
            preds[s].append(n)
    dom = {n: set(nodes) for n in nodes}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n is entry:
                continue
            incoming = [dom[p] for p in preds[n]]
            new = set.intersection(*incoming) | {n} if incoming else {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


@st.composite
def random_cfg(draw):
    """A random connected CFG as a successor map over int nodes."""
    n = draw(st.integers(min_value=2, max_value=10))
    succs = {i: [] for i in range(n)}
    # Spanning structure: each node i>0 reachable from some j<i.
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        succs[j].append(i)
    # Extra random edges (including back edges).
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if b not in succs[a]:
            succs[a].append(b)
    return succs


class TestAgainstNaiveOracle:
    @given(random_cfg())
    @settings(max_examples=60, deadline=None)
    def test_idom_consistent_with_naive_dominator_sets(self, succs):
        from repro.analysis.dominators import immediate_dominators

        idom = immediate_dominators(0, succs)
        naive = _naive_dominators(0, succs)
        reachable = set(idom)
        for node in reachable:
            if node == 0:
                continue
            # The immediate dominator must be the unique closest strict
            # dominator: a member of the naive dominator set.
            assert idom[node] in naive[node]
            # And every strict dominator of the node must dominate idom.
            for strict_dom in naive[node] - {node}:
                assert strict_dom in naive[idom[node]] | {idom[node]}
