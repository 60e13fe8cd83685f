"""Loop classification: SCCs of the loop dependence subgraph (paper §6.1).

Following the paper's methodology: "The subset of a dependence graph
(PS-PDG or PDG) for a given loop is analyzed to identify strongly-connected
components (SCC) with loop-carried dependences. ... If a loop can be
parallelized as DOALL (i.e., no loop-carried dependences with a known trip
count), then it is only considered as DOALL.  For non-DOALL loops, the
compiler considers HELIX and DSWP."
"""

import dataclasses

from repro.analysis.deptests import constant_trip_count
from repro.analysis.scc import strongly_connected_components


@dataclasses.dataclass
class SCCInfo:
    """One strongly-connected component of a loop's dependence subgraph."""

    instructions: list
    uids: frozenset
    is_sequential: bool  # holds a loop-carried directed dependence inside

    @property
    def size(self):
        return len(self.instructions)


@dataclasses.dataclass
class LoopClassification:
    """Everything the planner needs to know about one loop under one view."""

    loop: object
    view_name: str
    trip_count_known: bool
    sccs: list
    serialized_uids: frozenset  # orderless mutual-exclusion work
    carried_edge_count: int

    @property
    def sequential_sccs(self):
        return [s for s in self.sccs if s.is_sequential]

    @property
    def doall_legal(self):
        """DOALL: no sequential SCC and a known trip count.

        Orderless (serialized_uids) work does not block DOALL — it runs
        under a lock in any order, exactly like the critical sections the
        OpenMP source plan itself uses.
        """
        return self.trip_count_known and not self.sequential_sccs

    def sequential_uids(self):
        uids = set()
        for scc in self.sequential_sccs:
            uids.update(scc.uids)
        return frozenset(uids)


def classify_loop(view, loop):
    """Classify ``loop`` under the dependence ``view`` (once per view)."""
    header = loop.header.name
    classification = view.classifications.get(header)
    if classification is None:
        classification = view.classifications[header] = _classify(view, loop)
    return classification


def _classify(view, loop):
    # Every pair a view returns for ``loop`` has both ends in it, so only
    # the nodes with successors get an adjacency list.
    instructions = view.loop_instructions(loop)
    serialized = view.serialized_uids(loop)

    adjacency = {}
    carried_pairs = set()
    for src, dst in view.carried_edges(loop):
        # Orderless work never contributes carried *order* constraints;
        # its mutual exclusion is accounted separately.
        if src.uid in serialized and dst.uid in serialized:
            continue
        adjacency.setdefault(src, []).append(dst)
        carried_pairs.add((src, dst))
    for src, dst in view.intra_edges(loop):
        adjacency.setdefault(src, []).append(dst)

    components = strongly_connected_components(instructions, adjacency)
    component_of = {
        inst: index
        for index, component in enumerate(components)
        for inst in component
    }
    sequential = {
        component_of[src]
        for src, dst in carried_pairs
        if component_of[src] == component_of[dst]
    }
    sccs = [
        SCCInfo(
            instructions=list(component),
            uids=frozenset(inst.uid for inst in component),
            is_sequential=index in sequential,
        )
        for index, component in enumerate(components)
    ]

    return LoopClassification(
        loop=loop,
        view_name=view.name,
        trip_count_known=constant_trip_count(loop) is not None,
        sccs=sccs,
        serialized_uids=serialized,
        carried_edge_count=len(carried_pairs),
    )
