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


def compute_control_dependence(function):
    """Map each block to the list of (branch) blocks it is control dependent on.

    Returns ``dict[block] -> list[block]`` (deterministic order, duplicates
    removed).  The entry block of a straight-line function depends on nothing.
    """
    post_tree, exit_node = compute_postdominator_tree(function)
    deps = {block: [] for block in function.blocks}

    for block in function.blocks:
        successors = block.successors()
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


def controlling_branch_instructions(function):
    """Map each instruction to the branch instructions it is control dependent on.

    Instruction-level control dependence: every instruction inherits its
    block's control dependences; the dependence source is the controlling
    block's terminator (the branch that decides execution).
    """
    block_deps = compute_control_dependence(function)
    result = {}
    for block in function.blocks:
        sources = [b.terminator for b in block_deps[block] if b.terminator]
        for inst in block.instructions:
            result[inst] = list(sources)
    return result
