"""repro.workloads — evaluation programs: NAS mini-kernels + Fig 11 gallery."""

from repro.workloads import nas
from repro.workloads.nas import (
    KERNELS,
    build_kernel,
    kernel_names,
)
from repro.workloads.necessity import (
    PAIRS,
    NecessityPair,
    build_pair_sessions,
    demonstrate,
)

__all__ = [
    "nas",
    "KERNELS",
    "build_kernel",
    "kernel_names",
    "PAIRS",
    "NecessityPair",
    "build_pair_sessions",
    "demonstrate",
]
