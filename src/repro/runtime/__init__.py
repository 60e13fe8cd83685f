"""repro.runtime — backend-pluggable parallel execution of plans.

Three :class:`~repro.runtime.backends.ExecutionBackend` implementations
execute planned DOALL loops: ``simulated`` (seeded virtual-thread
interleaving — the race-detection oracle), ``threads`` (real OS
threads), and ``processes`` (real OS processes with serialized
per-worker frames).  Iteration partitioning is decided once by a
:class:`~repro.runtime.schedulers.ChunkScheduler` (``static`` /
``dynamic`` / ``guided``) and shared by every backend.
"""

from repro.runtime.backends import ThreadsBackend, get_backend
from repro.planner.recipes import (
    LoopParallelization,
    parallelization_from_annotation,
    parallelization_from_pspdg,
)
from repro.runtime.executor import ParallelInterpreter, run_parallel
from repro.runtime.schedulers import (
    DynamicScheduler,
    GuidedScheduler,
    StaticScheduler,
    make_scheduler,
)

__all__ = [
    "DynamicScheduler",
    "GuidedScheduler",
    "LoopParallelization",
    "ParallelInterpreter",
    "StaticScheduler",
    "ThreadsBackend",
    "get_backend",
    "make_scheduler",
    "parallelization_from_annotation",
    "parallelization_from_pspdg",
    "run_parallel",
]
