"""repro.workloads — evaluation programs: NAS mini-kernels + Fig 11 gallery."""

from repro.workloads.nas import build_kernel, kernel_names
from repro.workloads.necessity import PAIRS

__all__ = [
    "build_kernel",
    "kernel_names",
    "PAIRS",
]
