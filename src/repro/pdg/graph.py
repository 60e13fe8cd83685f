"""The sequential Program Dependence Graph (Ferrante/Ottenstein/Warren).

One node per IR instruction; edges carry control, register (SSA def-use),
or memory dependences.  Memory edges record whether the dependence has a
loop-independent component and the set of loops at which it is carried —
what ``planner/views.py`` buckets per loop for the parallelization
planner.
"""

import dataclasses

EDGE_CONTROL = "control"
EDGE_REGISTER = "register"
EDGE_MEMORY = "memory"


@dataclasses.dataclass
class PDGEdge:
    """A dependence from ``source`` to ``destination`` (instructions)."""

    source: object
    destination: object
    kind: str  # control | register | memory
    mem_kind: str = None  # RAW | WAR | WAW (memory edges only)
    obj: object = None  # MemoryObject (memory edges only)
    loop_independent: bool = True
    carried_loops: tuple = ()


class PDG:
    """Dependence graph over the instructions of one function.

    ``analyses`` is the function's analysis record the graph was built
    from — its provenance: memory edges' ``carried_loops`` and ``obj``
    are that record's loops and memory objects.
    """

    def __init__(self, analyses):
        self.analyses = analyses
        self.function = analyses.function
        self.nodes = list(self.function.instructions())
        self.edges = []

    @property
    def loops(self):
        """The record's natural loops (outermost first)."""
        return self.analyses.loops

    def add_edge(self, edge):
        self.edges.append(edge)
        return edge

    def edge_count(self):
        return len(self.edges)

    def statistics(self):
        """Summary counts, used by construction benchmarks and tests."""
        by_kind = {}
        carried = 0
        for edge in self.edges:
            by_kind[edge.kind] = by_kind.get(edge.kind, 0) + 1
            if edge.carried_loops:
                carried += 1
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "carried_edges": carried,
            **{f"{kind}_edges": count for kind, count in by_kind.items()},
        }

    def to_dot(self, name="pdg"):
        """GraphViz rendering (debugging/docs)."""
        lines = [f"digraph {name} {{"]
        for inst in self.nodes:
            label = inst.describe().replace('"', "'")
            lines.append(f'  n{inst.uid} [label="{label}"];')
        styles = {
            EDGE_CONTROL: "dashed",
            EDGE_REGISTER: "solid",
            EDGE_MEMORY: "bold",
        }
        for edge in self.edges:
            style = styles[edge.kind]
            color = "red" if edge.carried_loops else "black"
            lines.append(
                f"  n{edge.source.uid} -> n{edge.destination.uid} "
                f'[style={style}, color={color}];'
            )
        lines.append("}")
        return "\n".join(lines)
