"""repro.runtime — backend-pluggable parallel execution of plans.

Three :class:`ExecutionBackend` implementations execute planned DOALL
loops: ``simulated`` (seeded virtual-thread interleaving — the
race-detection oracle), ``threads`` (real OS threads), and ``processes``
(real OS processes with serialized per-worker frames).  Iteration
partitioning is decided once by a :class:`ChunkScheduler` (``static`` /
``dynamic`` / ``guided``) and shared by every backend.
"""

from repro.runtime.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessesBackend,
    SimulatedBackend,
    ThreadsBackend,
    get_backend,
)
from repro.runtime.payload import (
    ModuleCodec,
    RegionPayloads,
    WorkerPayload,
    decode_payload,
    encode_region,
    module_codec,
)
from repro.planner.recipes import (
    LoopParallelization,
    RegionParallelization,
    parallelization_from_annotation,
    parallelization_from_pspdg,
    recipes_from_plan,
)
from repro.runtime.executor import (
    ParallelInterpreter,
    run_parallel,
)
from repro.runtime.schedulers import (
    SCHEDULERS,
    ChunkScheduler,
    DynamicScheduler,
    GuidedScheduler,
    StaticScheduler,
    make_scheduler,
)

__all__ = [
    "BACKENDS",
    "ChunkScheduler",
    "DynamicScheduler",
    "ExecutionBackend",
    "GuidedScheduler",
    "LoopParallelization",
    "ModuleCodec",
    "ParallelInterpreter",
    "ProcessesBackend",
    "RegionParallelization",
    "RegionPayloads",
    "SCHEDULERS",
    "SimulatedBackend",
    "StaticScheduler",
    "ThreadsBackend",
    "WorkerPayload",
    "decode_payload",
    "encode_region",
    "get_backend",
    "make_scheduler",
    "module_codec",
    "parallelization_from_annotation",
    "parallelization_from_pspdg",
    "recipes_from_plan",
    "run_parallel",
]
