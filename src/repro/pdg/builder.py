"""PDG construction from IR + sequential analyses (paper pipeline step 1).

The PDG of a function contains:

* **control** edges from each conditional branch to every instruction
  control-dependent on it (Ferrante-style, via postdominance);
* **register** edges for SSA def-use pairs (never loop-carried in this IR:
  temporaries cannot outlive an iteration without passing through memory);
* **memory** edges: the analysis record's own dependences, which the
  alias/subscript-driven memory dependence analysis emits as ``PDGEdge``
  objects with their loop-carried levels — appended as they are, neither
  recomputed nor copied here.
"""

from repro.analysis.controldep import compute_control_dependence
from repro.ir.instructions import Instruction
from repro.pdg.graph import EDGE_CONTROL, EDGE_REGISTER, PDG, PDGEdge


def pdg_from_analyses(analyses):
    """Build the full sequential PDG over one analysis record."""
    pdg = PDG(analyses)
    edges = pdg.edges

    # Control dependences: an instruction depends on the branch that
    # ends each block its own block is control dependent on.
    controllers = compute_control_dependence(analyses)
    for inst in pdg.nodes:
        for block in controllers[inst.parent]:
            edges.append(PDGEdge(block.terminator, inst, EDGE_CONTROL))

    # Register (def-use) dependences.
    for inst in pdg.nodes:
        for operand in inst.operands:
            if isinstance(operand, Instruction):
                edges.append(PDGEdge(operand, inst, EDGE_REGISTER))

    # Memory dependences: the record's edges themselves.
    edges.extend(analyses.dependences)
    return pdg
