"""repro.pdg — the sequential Program Dependence Graph."""
