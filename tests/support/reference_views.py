"""Test-only oracle: the dependence views' queries as whole-graph scans.

These are the queries ``repro.planner.views`` answered before it
bucketed each graph once: every call re-reads every edge of the graph
(and every instruction of the function), filtering by the loop at hand.
Slow, but each reads straight off its definition.  ``classify`` is the
loop classification over them as it was: a node per loop instruction,
every pair filtered by the loop's node set, and Tarjan pushing every
node.  ``tests/planner/test_views.py`` requires the bucketed answers to
equal these pair for pair and in order, and the classifications to be
the same SCCs in the same order.

The views derive every abstraction from the PDG and the relaxation log;
these scans read each one where it was first defined: the PDG's edges,
J&K as the PDG minus the worksharing-independence removals the log
records (scanned per query), and the PS-PDG as its directed edges
(``support/overlay.py``: the PDG's edges plus the builder's overlay),
hierarchical producers and consumers expanded to their leaves.
"""

from repro.core.builder import loop_context_label
from support.overlay import directed_edges


def loop_instructions(view, loop):
    return [
        inst
        for inst in view.analyses.function.instructions()
        if loop.contains_instruction(inst)
    ]


def _visible(view, edge, loop):
    if view.name != "J&K":
        return True
    label = loop_context_label(loop.header.name)
    return not any(
        relaxation.feature == "independence"
        and relaxation.edge is edge
        and label in relaxation.carried_removed
        for relaxation in view.pspdg.relaxations
    )


def carried_edges(view, loop):
    """Directed dependences carried at ``loop`` under ``view``, after its
    removals: (src_inst, dst_inst) pairs in graph order."""
    removable = view.analyses.removable(loop)
    result = []
    if view.name == "PS-PDG":
        label = loop_context_label(loop.header.name)
        for edge in directed_edges(view.pspdg):
            if label not in edge.carried_contexts or edge.kind == "sync":
                continue
            if edge.obj is not None and edge.obj in removable:
                continue
            for src in edge.producer.leaf_instructions():
                for dst in edge.consumer.leaf_instructions():
                    result.append((src, dst))
        return result
    for edge in view.pspdg.pdg.edges:
        if loop not in edge.carried_loops:
            continue
        if not _visible(view, edge, loop):
            continue
        if edge.obj is not None and edge.obj in removable:
            continue
        result.append((edge.source, edge.destination))
    return result


def intra_edges(view, loop):
    """Loop-independent dependences between instructions of ``loop``."""
    result = []
    if view.name == "PS-PDG":
        for edge in directed_edges(view.pspdg):
            if not edge.loop_independent or edge.kind == "sync":
                continue
            for src in edge.producer.leaf_instructions():
                for dst in edge.consumer.leaf_instructions():
                    if loop.contains_instruction(
                        src
                    ) and loop.contains_instruction(dst):
                        result.append((src, dst))
        return result
    for edge in view.pspdg.pdg.edges:
        if not edge.loop_independent:
            continue
        if loop.contains_instruction(
            edge.source
        ) and loop.contains_instruction(edge.destination):
            result.append((edge.source, edge.destination))
    return result


def _tarjan(nodes, successors):
    """Tarjan's SCCs, iterative, every node pushed and popped alike."""
    index_counter = [0]
    indices = {}
    lowlinks = {}
    on_stack = set()
    stack = []
    components = []
    for root in nodes:
        if root in indices:
            continue
        work = [(root, iter(successors.get(root, ())))]
        indices[root] = lowlinks[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in indices:
                    indices[succ] = lowlinks[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node:
                        break
                component.reverse()
                components.append(component)
    return components


def classify(view, loop):
    """``(sccs, carried_edge_count, serialized_uids)`` of ``loop`` under
    ``view`` by the scans: every instruction a node, every pair filtered
    by the loop's node set, each SCC's sequential flag by search; an SCC
    is ``(member uids in order, is_sequential)``."""
    instructions = loop_instructions(view, loop)
    node_set = set(instructions)
    serialized = view.serialized_uids(loop)
    adjacency = {inst: [] for inst in instructions}
    carried_pairs = set()
    for src, dst in carried_edges(view, loop):
        if src in node_set and dst in node_set:
            if src.uid in serialized and dst.uid in serialized:
                continue
            adjacency[src].append(dst)
            carried_pairs.add((src, dst))
    for src, dst in intra_edges(view, loop):
        if src in node_set and dst in node_set:
            adjacency[src].append(dst)
    sccs = []
    for component in _tarjan(instructions, adjacency):
        members = set(component)
        sequential = any(
            (src, dst) in carried_pairs
            for src in component
            for dst in adjacency[src]
            if dst in members
        )
        sccs.append(([inst.uid for inst in component], sequential))
    return sccs, len(carried_pairs), serialized
