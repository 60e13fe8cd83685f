"""Mini NAS Parallel Benchmarks (paper §6: BT, CG, EP, FT, IS, LU, MG, SP).

Each kernel is a MiniOMP program that preserves the *OpenMP structure* of
the original NAS benchmark — which loops the programmer parallelized,
which variables are private/threadprivate/reductions, where criticals and
recurrences sit — at laptop-scale problem sizes.  Fig. 13 (option counts)
and Fig. 14 (ideal-machine critical path) depend on exactly this
structure, not on the class B/C problem sizes, so the shapes of both
results are preserved while each kernel interprets in well under a second.
"""

from repro.frontend import compile_source
from repro.workloads.nas import bt, cg, ep, ft, is_, lu, mg, sp

KERNELS = {
    "BT": bt,
    "CG": cg,
    "EP": ep,
    "FT": ft,
    "IS": is_,
    "LU": lu,
    "MG": mg,
    "SP": sp,
}


def kernel_names():
    """Benchmark names in the paper's presentation order."""
    return list(KERNELS)


def build_kernel(name):
    """Compile one kernel to an annotated IR module."""
    return compile_source(KERNELS[name].SOURCE, f"nas-{name.lower()}")
