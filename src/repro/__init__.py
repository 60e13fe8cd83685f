"""repro — a reproduction of "The Parallel Semantics Program Dependence Graph".

The package implements the paper's full pipeline (Fig. 12):

1. :mod:`repro.frontend` — MiniOMP (OpenMP-style pragmas) and Cilk
   constructs, lowered to
2. :mod:`repro.ir` — a small LLVM-flavoured IR with parallel-region
   metadata, analyzed by
3. :mod:`repro.analysis` — dominators, control/memory dependence, affine
   subscript tests over :mod:`repro.analysis.affine` (the one affine form,
   which the region compiler's bounds proofs read too), reductions,
   privatization — feeding
4. :mod:`repro.pdg` — the sequential PDG — and
5. :mod:`repro.core` — **the PS-PDG** (Table 1 model, builder, Section 4
   ablations), consumed by
6. :mod:`repro.planner` — DOALL/HELIX/DSWP classification, Fig. 13 option
   enumeration, Fig. 14 ideal-machine critical paths — with
7. :mod:`repro.emulator` / :mod:`repro.runtime` — a reference interpreter
   with loop-nest profiling and a deterministic simulated-parallel
   executor that validates plans, over
8. :mod:`repro.workloads` — mini NAS kernels and the Fig. 11 necessity
   gallery.

The whole pipeline is driven through :class:`repro.Session`, which
materializes each stage lazily, exactly once, into a dict keyed by
the stage, the values of the config fields it reads and the calibration
token.  Quick start — source to chosen plan in four calls::

    from repro import Session

    s = Session.from_source(source_text, name="demo")
    print(s.options().totals)          # Fig. 13 enumeration
    plan = s.plan()                    # best PS-PDG plan (Fig. 14)
    result = s.run(plan)               # validated parallel execution

The same pipeline is scriptable from the shell::

    python -m repro plan examples/histogram.mop
"""

from repro.pipeline import SessionConfig
from repro.session import Session

__version__ = "1.1.0"


__all__ = [
    "Session",
    "SessionConfig",
    "__version__",
]
