"""Mini NAS Parallel Benchmarks (paper §6: BT, CG, EP, FT, IS, LU, MG, SP).

Each kernel is a MiniOMP program that preserves the *OpenMP structure* of
the original NAS benchmark — which loops the programmer parallelized,
which variables are private/threadprivate/reductions, where criticals and
recurrences sit — at laptop-scale problem sizes.  Fig. 13 (option counts)
and Fig. 14 (ideal-machine critical path) depend on exactly this
structure, not on the class B/C problem sizes, so the shapes of both
results are preserved while each kernel interprets in well under a second.
"""

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
    return KERNELS[name].build_module()


def build_session(name, **overrides):
    """A :class:`repro.Session` over one kernel (backend/schedule/...

    overrides flow into the session config — e.g.
    ``build_session("EP", backend="processes", workers=8)``).
    """
    from repro.session import Session

    return Session.from_kernel(name, **overrides)
