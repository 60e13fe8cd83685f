"""Dominator and postdominator trees.

Implements the Cooper-Harvey-Kennedy iterative algorithm ("A Simple, Fast
Dominance Algorithm").  The core runs on an abstract graph (entry node +
successor map), so the same code computes postdominators by running on the
reversed CFG rooted at a virtual exit node that joins every ``return``.
"""

from repro.analysis.cfg import (
    predecessors_map,
    reverse_postorder,
    successors_map,
)
from repro.util.errors import AnalysisError


class DominatorTree:
    """Immediate-dominator tree over an abstract node set.

    ``idom[n]`` is the immediate dominator of ``n`` (the root's idom is
    itself).  Nodes unreachable from the root are absent.
    """

    def __init__(self, root, idom):
        self.root = root
        self.idom = idom

    def contains(self, node):
        return node in self.idom

    def dominates(self, a, b):
        """True if ``a`` dominates ``b`` (reflexive)."""
        if a not in self.idom or b not in self.idom:
            raise AnalysisError("node not in dominator tree")
        node = b
        while True:
            if node is a:
                return True
            parent = self.idom[node]
            if parent is node:
                return node is a
            node = parent

    def strictly_dominates(self, a, b):
        return a is not b and self.dominates(a, b)


def immediate_dominators(root, successors):
    """Cooper-Harvey-Kennedy on an abstract graph: node -> immediate
    dominator (the root's is itself; unreachable nodes are absent)."""
    order = reverse_postorder(root, successors)
    index = {node: i for i, node in enumerate(order)}
    preds = {node: [] for node in order}
    for node in order:
        for succ in successors.get(node, []):
            if succ in index:
                preds[succ].append(node)

    idom = {root: root}

    def intersect(a, b):
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node is root:
                continue
            candidates = [p for p in preds[node] if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(node) is not new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def compute_dominator_tree(function):
    """Dominator tree of a function's CFG."""
    succs = successors_map(function)
    idom = immediate_dominators(function.entry, succs)
    return DominatorTree(function.entry, idom)


class _VirtualExit:
    """Synthetic sink joining all returns (and breaking endless loops)."""

    name = "<virtual-exit>"

    def __repr__(self):
        return "<virtual-exit>"


def compute_postdominator_tree(function):
    """Postdominator tree, rooted at a virtual exit.

    Returns ``(tree, virtual_exit)``.  Every block whose terminator is a
    ``return`` gets an edge to the virtual exit in the reversed graph's
    source role.  Blocks that cannot reach any return (infinite loops) get
    one too, and the tree is computed with those edges, so it is total
    and a branch into such a loop is postdominated by the exit alone; our
    frontend never produces such loops, but analyses must not crash on
    hand-built IR.
    """
    exit_node = _VirtualExit()
    preds = predecessors_map(function)

    # Reversed graph: successors(reversed) = predecessors(original); the
    # virtual exit's reversed-successors are the returning blocks.
    returning = [
        block for block in function.blocks
        if block.terminator is not None and block.terminator.opcode == "return"
    ]
    reversed_succs = {exit_node: list(returning)}
    for block in function.blocks:
        reversed_succs[block] = list(preds[block])

    idom = immediate_dominators(exit_node, reversed_succs)
    if len(idom) <= len(function.blocks):
        # Some block reaches no return: hang it off the exit and redo.
        reversed_succs[exit_node].extend(
            block for block in function.blocks if block not in idom
        )
        idom = immediate_dominators(exit_node, reversed_succs)
    return DominatorTree(exit_node, idom), exit_node
