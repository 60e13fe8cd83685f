"""CFG and def-use utilities; the record builds each map once."""


def successors_map(function):
    """Map each block to its successor list."""
    return {block: block.successors() for block in function.blocks}


def predecessors_map(successors):
    """Map each block of a successor map to its predecessor list."""
    preds = {block: [] for block in successors}
    for block, succs in successors.items():
        for succ in succs:
            preds[succ].append(block)
    return preds


def operand_users(function):
    """``id(value)`` -> the instructions of ``function`` using it, once
    per operand, in program order."""
    users = {}
    for block in function.blocks:
        for inst in block.instructions:
            for operand in inst.operands:
                users.setdefault(id(operand), []).append(inst)
    return users


def reverse_postorder(entry, successors):
    """Blocks in reverse postorder from ``entry`` (the dataflow-friendly order).

    ``successors`` is a mapping block -> successor list.  Unreachable blocks
    are omitted.  Iterative DFS keeps recursion depth independent of CFG size.
    """
    postorder = []
    visited = set()
    # Stack entries are (block, iterator over remaining successors).
    stack = [(entry, iter(successors.get(entry, [])))]
    visited.add(entry)
    while stack:
        block, succ_iter = stack[-1]
        advanced = False
        for succ in succ_iter:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(successors.get(succ, []))))
                advanced = True
                break
        if not advanced:
            postorder.append(block)
            stack.pop()
    postorder.reverse()
    return postorder


def reachable_blocks(entry, successors):
    """Blocks reachable from ``entry``, as an insertion-ordered dict."""
    seen = {entry: None}
    worklist = [entry]
    while worklist:
        block = worklist.pop()
        for succ in successors.get(block, []):
            if succ not in seen:
                seen[succ] = None
                worklist.append(succ)
    return seen


def can_reach(source, target, successors, banned_edges=frozenset()):
    """True if ``target`` is reachable from ``source``.

    ``banned_edges`` is a set of ``(from_block, to_block)`` pairs to exclude;
    used to ask "can A reach B without traversing the loop backedge", which
    distinguishes intra-iteration from loop-carried dependences.
    """
    seen = set()
    # ``target`` is matched among successors only, so ``source`` reaches
    # itself only around a cycle.
    worklist = [source]
    while worklist:
        block = worklist.pop()
        for succ in successors.get(block, []):
            if (block, succ) in banned_edges:
                continue
            if succ is target:
                return True
            if succ not in seen:
                seen.add(succ)
                worklist.append(succ)
    return False
