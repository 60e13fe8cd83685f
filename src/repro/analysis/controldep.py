"""Control dependence, per Ferrante/Ottenstein/Warren (TOPLAS'87).

Block ``B`` is control dependent on block ``A`` iff ``A`` has two successors
such that one is postdominated by ``B`` (or leads to it) and the other is
not: ``A``'s branch decides whether ``B`` executes.

The classic formulation: for each CFG edge ``(A, S)`` where ``A`` does not
postdominate itself trivially, walk the postdominator tree from ``S`` up to
(but excluding) ``ipostdom(A)``; every block visited is control dependent on
``A``.
"""

from repro.analysis.dominators import compute_postdominator_tree


def compute_control_dependence(analyses):
    """Map each block of the record's function to the list of (branch)
    blocks it is control dependent on.

    Returns ``dict[block] -> list[block]`` (deterministic order, duplicates
    removed).  The entry block of a straight-line function depends on nothing.
    """
    post_tree, exit_node = compute_postdominator_tree(analyses)
    deps = {block: [] for block in analyses.function.blocks}

    for block, successors in analyses.successors.items():
        if len(successors) < 2:
            continue
        limit = post_tree.idom.get(block)
        for succ in successors:
            runner = succ
            while (runner is not limit and runner is not block
                   and runner is not exit_node):
                if block not in deps[runner]:
                    deps[runner].append(block)
                parent = post_tree.idom.get(runner)
                if parent is runner or parent is None:
                    break
                runner = parent
            # A block can be control dependent on itself (loop header whose
            # branch governs re-execution); the walk above stops when runner
            # is block, and self-dependence is recorded here.
            if runner is block and block not in deps[block]:
                deps[block].append(block)
    return deps
