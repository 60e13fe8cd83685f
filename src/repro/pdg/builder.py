"""PDG construction from IR + sequential analyses (paper pipeline step 1).

The PDG of a function contains:

* **control** edges from each conditional branch to every instruction
  control-dependent on it (Ferrante-style, via postdominance);
* **register** edges for SSA def-use pairs (never loop-carried in this IR:
  temporaries cannot outlive an iteration without passing through memory);
* **memory** edges from the alias/subscript-driven memory dependence
  analysis, annotated with loop-carried levels — read from the
  function's analysis record, never recomputed here.
"""

from repro.analysis.controldep import controlling_branch_instructions
from repro.ir.instructions import Instruction
from repro.pdg.graph import (
    EDGE_CONTROL,
    EDGE_MEMORY,
    EDGE_REGISTER,
    PDG,
    PDGEdge,
)


def pdg_from_analyses(analyses):
    """Build the full sequential PDG over one analysis record."""
    pdg = PDG(analyses)

    # Control dependences.
    controllers = controlling_branch_instructions(analyses.function)
    for inst in pdg.nodes:
        for branch in controllers.get(inst, []):
            pdg.add_edge(
                PDGEdge(branch, inst, EDGE_CONTROL, loop_independent=True)
            )

    # Register (def-use) dependences.
    for inst in pdg.nodes:
        for operand in inst.operands:
            if isinstance(operand, Instruction):
                pdg.add_edge(
                    PDGEdge(
                        operand, inst, EDGE_REGISTER, loop_independent=True
                    )
                )

    # Memory dependences.
    for dep in analyses.dependences:
        pdg.add_edge(
            PDGEdge(
                dep.source,
                dep.destination,
                EDGE_MEMORY,
                mem_kind=dep.kind,
                obj=dep.obj,
                loop_independent=dep.loop_independent,
                carried_loops=tuple(dep.carried_loops),
            )
        )
    return pdg
