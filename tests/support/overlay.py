"""The PS-PDG's directed edges as one list, derived from the overlay.

The graph keeps no edge list of its own: a directed edge is a PDG edge
plus its overlay state (``PSPDG.edge_state``, ``PSPDG.selectors``), and
sync edges are ``PSPDG.sync_edges``.  Tests that read directed edges one
by one read this list: the PDG's edges the parallel semantics did not
relax entirely, in graph order, then the sync edges.
"""

import collections

DirectedEdge = collections.namedtuple(
    "DirectedEdge",
    "producer consumer kind mem_kind obj loop_independent carried_contexts"
    " selector",
)


def directed_edges(pspdg):
    edges = []
    for edge in pspdg.pdg.edges:
        loop_independent, carried = pspdg.edge_state(edge)
        if not (loop_independent or carried):
            continue
        edges.append(
            DirectedEdge(
                pspdg.node_of(edge.source),
                pspdg.node_of(edge.destination),
                edge.kind,
                edge.mem_kind,
                edge.obj,
                loop_independent,
                carried,
                pspdg.selectors.get(edge),
            )
        )
    for producer, consumer in pspdg.sync_edges:
        edges.append(
            DirectedEdge(producer, consumer, "sync", None, None, True, (), None)
        )
    return edges
