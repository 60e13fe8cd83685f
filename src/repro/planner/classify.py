"""Loop classification: SCCs of the loop dependence subgraph (paper §6.1).

Following the paper's methodology: "The subset of a dependence graph
(PS-PDG or PDG) for a given loop is analyzed to identify strongly-connected
components (SCC) with loop-carried dependences. ... If a loop can be
parallelized as DOALL (i.e., no loop-carried dependences with a known trip
count), then it is only considered as DOALL.  For non-DOALL loops, the
compiler considers HELIX and DSWP."

Views that see one graph of a loop share its classification, and Tarjan
runs on first read of ``sccs``: with no carried pair no SCC is
sequential, so ``doall_legal`` is the known trip count.
"""

import dataclasses
import functools

from repro.analysis.affine import iteration_range
from repro.analysis.scc import strongly_connected_components


@dataclasses.dataclass
class SCCInfo:
    """One strongly-connected component of a loop's dependence subgraph."""

    instructions: list
    uids: frozenset
    is_sequential: bool  # holds a loop-carried directed dependence inside


@dataclasses.dataclass
class LoopClassification:
    """Everything the planner needs to know about one loop under a view."""

    loop: object
    trip_count_known: bool
    serialized_uids: frozenset  # orderless mutual-exclusion work
    carried_edge_count: int
    #: (successor lists, carried pairs) until ``sccs`` has read them.
    graph: tuple = dataclasses.field(default=None, repr=False, compare=False)

    @functools.cached_property
    def sccs(self):
        adjacency, carried_pairs = self.graph
        self.graph = None
        components = strongly_connected_components(
            loop_instructions(self.loop), adjacency
        )
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
        return [
            SCCInfo(list(component), frozenset(i.uid for i in component),
                    index in sequential)
            for index, component in enumerate(components)
        ]

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
        blocked = self.carried_edge_count and self.sequential_sccs
        return self.trip_count_known and not blocked

    def sequential_uids(self):
        return frozenset().union(*(scc.uids for scc in self.sequential_sccs))


def loop_instructions(loop):
    """The loop's instructions in function order."""
    return [
        inst
        for block in loop.header.parent.blocks
        if block in loop.blocks
        for inst in block.instructions
    ]


def classify_loop(view, loop):
    """Classify ``loop`` under ``view``, once per distinct graph of it."""
    header = loop.header.name
    if header not in view.classifications:
        serialized = view.serialized_uids(loop)
        memo = view.index.classifications
        key = (header, view.relaxing(loop), serialized)
        if key not in memo:
            memo[key] = _classify(view, loop, serialized)
        view.classifications[header] = memo[key]
    return view.classifications[header]


def _classify(view, loop, serialized):
    # Every pair a view returns for ``loop`` has both ends in it, so only
    # the nodes with successors get an adjacency list.
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
    return LoopClassification(
        loop, iteration_range(loop) is not None, serialized,
        len(carried_pairs), (adjacency, carried_pairs),
    )
