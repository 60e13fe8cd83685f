"""repro.pdg — the sequential Program Dependence Graph."""

from repro.pdg.graph import EDGE_CONTROL, EDGE_MEMORY, EDGE_REGISTER, PDG

__all__ = [
    "EDGE_CONTROL",
    "EDGE_MEMORY",
    "EDGE_REGISTER",
    "PDG",
]
