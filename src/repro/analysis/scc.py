"""Tarjan's strongly-connected-components algorithm (iterative).

Works over an explicit adjacency mapping so it can serve the PDG, the
PS-PDG, and tests alike.  Components are returned in reverse topological
order of the condensation (Tarjan's natural output order); each component
preserves discovery order internally, so results are deterministic.
"""


def strongly_connected_components(nodes, successors):
    """Compute SCCs of the graph ``(nodes, successors)``.

    Args:
        nodes: iterable of hashable nodes (iteration order fixes tie-breaks).
        successors: mapping node -> iterable of successor nodes.

    Returns:
        List of lists of nodes; reverse-topological order across components.
    """
    counter = 0
    indices = {}
    lowlinks = {}
    on_stack = set()
    stack = []
    components = []

    for root in nodes:
        if root in indices:
            continue
        root_successors = successors.get(root)
        indices[root] = lowlinks[root] = counter
        counter += 1
        if not root_successors:
            # Nothing to search: the root is a component of its own.
            components.append([root])
            continue
        work = [(root, iter(root_successors))]
        stack.append(root)
        on_stack.add(root)

        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in indices:
                    indices[succ] = lowlinks[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack and indices[succ] < lowlinks[node]:
                    lowlinks[node] = indices[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlinks[node] < lowlinks[parent]:
                    lowlinks[parent] = lowlinks[node]
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node or member == node:
                        break
                component.reverse()
                components.append(component)
    return components
