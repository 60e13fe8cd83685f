"""The sequential Program Dependence Graph (Ferrante/Ottenstein/Warren).

One node per IR instruction; edges carry control, register (SSA def-use),
or memory dependences.  The memory edges are the analysis record's own
dependences (``analyses.dependences``, which memdep emits as edges of this
class), not copies: each records whether the dependence has a
loop-independent component and the loops at which it is carried — what
``planner/views.py`` buckets per loop for the parallelization planner.
"""

import dataclasses

EDGE_CONTROL = "control"
EDGE_REGISTER = "register"
EDGE_MEMORY = "memory"


@dataclasses.dataclass(eq=False)
class PDGEdge:
    """A dependence from ``source`` to ``destination`` (instructions).

    Edges compare and hash by identity: the PS-PDG's overlay and its
    relaxation log name the edge itself.
    """

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
