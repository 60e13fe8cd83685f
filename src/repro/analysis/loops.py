"""Natural loop detection and the loop nesting forest.

A back edge is a CFG edge ``latch -> header`` where ``header`` dominates
``latch``; its natural loop is the set of blocks that can reach the latch
without passing through the header.  Loops sharing a header are merged.
The nesting forest orders loops by block-set containment.
"""

from repro.analysis.cfg import predecessors_map
from repro.analysis.dominators import compute_dominator_tree


class Loop:
    """One natural loop.

    Attributes:
        header: the unique entry block of the loop.
        latches: blocks with a back edge to the header.
        blocks: insertion-ordered dict (block -> None) of all blocks in
            the loop, header first.
        parent: enclosing loop, or None for top-level loops.
        children: loops nested directly inside.
        canonical: the frontend's CanonicalLoop metadata, when this loop was
            lowered from a structured ``for`` (None for hand-built loops).
    """

    def __init__(self, header, latches, blocks):
        self.header = header
        self.latches = list(latches)
        self.blocks = blocks
        self.parent = None
        self.children = []
        self.canonical = None

    @property
    def depth(self):
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains_instruction(self, inst):
        return inst.parent in self.blocks

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def exit_edges(self):
        """CFG edges leaving the loop, as (from_block, to_block) pairs."""
        edges = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    def back_edges(self):
        return [(latch, self.header) for latch in self.latches]

    def descendants(self):
        """All loops nested inside, any depth (not including self)."""
        result = []
        stack = list(self.children)
        while stack:
            loop = stack.pop()
            result.append(loop)
            stack.extend(loop.children)
        return result

    def __eq__(self, other):
        # Loops are identified by their header block, so Loop objects from
        # independent analysis runs over the same function compare equal.
        return isinstance(other, Loop) and self.header is other.header

    def __hash__(self):
        return hash(id(self.header))

    def __repr__(self):
        return f"<loop header={self.header.name} blocks={len(self.blocks)}>"


def find_natural_loops(function):
    """Return all natural loops of ``function`` with nesting links filled in.

    Loops are returned outermost-first (stable order by header position).
    CanonicalLoop metadata from ``function.loop_info`` is attached to the
    loop with the matching header name.
    """
    dom_tree = compute_dominator_tree(function)
    preds = predecessors_map(function)

    # Collect back edges grouped by header.
    latches_by_header = {}
    for block in function.blocks:
        if not dom_tree.contains(block):
            continue  # unreachable
        for succ in block.successors():
            if dom_tree.contains(succ) and dom_tree.dominates(succ, block):
                latches_by_header.setdefault(succ, []).append(block)

    loops = []
    for header, latches in latches_by_header.items():
        blocks = {header: None}
        worklist = [latch for latch in latches if latch is not header]
        blocks.update(dict.fromkeys(worklist))
        while worklist:
            block = worklist.pop()
            for pred in preds[block]:
                if pred not in blocks and dom_tree.contains(pred):
                    blocks[pred] = None
                    worklist.append(pred)
        loops.append(Loop(header, latches, blocks))

    # Nesting: parent is the smallest strictly-containing loop.
    for loop in loops:
        best = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.blocks and len(other.blocks) > len(loop.blocks):
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
    for loop in loops:
        if loop.parent is not None:
            loop.parent.children.append(loop)

    # Attach canonical metadata.
    for loop in loops:
        meta = function.loop_info.get(loop.header.name)
        if meta is not None:
            loop.canonical = meta

    # Deterministic order: by header position in the function.
    block_index = {b: i for i, b in enumerate(function.blocks)}
    loops.sort(key=lambda lp: block_index[lp.header])
    return loops


def loop_of_block(loops, block):
    """Innermost loop containing ``block`` (None if not in any loop)."""
    best = None
    for loop in loops:
        if block in loop.blocks:
            if best is None or len(loop.blocks) < len(best.blocks):
                best = loop
    return best
