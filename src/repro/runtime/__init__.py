"""repro.runtime — backend-pluggable parallel execution of plans.

Three :class:`~repro.runtime.backends.ExecutionBackend` implementations
execute planned DOALL loops: ``simulated`` (seeded virtual-thread
interleaving — the race-detection oracle), ``threads`` (real OS
threads), and ``processes`` (real OS processes with serialized
per-worker frames).  Iteration partitioning is decided once by a
:class:`~repro.runtime.schedulers.ChunkScheduler` (``static`` /
``dynamic`` / ``guided``) and shared by every backend.
"""

from repro.runtime.executor import run_parallel

__all__ = ["run_parallel"]
