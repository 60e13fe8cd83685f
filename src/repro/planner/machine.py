"""Machine model used by the option enumeration (paper §6.2).

The paper enumerates options "for a 56 core machine" with "8 chunk sizes
considered" for DOALL.  The model is a plain value object so experiments
can sweep it.
"""

import dataclasses
import sys

@dataclasses.dataclass(frozen=True)
class MachineModel:
    """Core count and the DOALL chunk sizes a plan may choose from.

    The two cost thresholds drive the small-region serialization pass
    (:mod:`repro.opt.serialize`): a parallel region whose statically
    estimated dynamic cost (instructions executed per entry, inner trip
    counts multiplied through) falls below ``serial_region_cost`` is not
    worth any dispatch and runs sequentially; below
    ``threads_region_cost`` it is worth threads but never worth
    process-pool frame pickling.  ``threads_region_cost`` is D, the
    fixed cost of one dispatch in steps (:meth:`tile_iterations`).
    Where workers' compute does not overlap (:func:`compute_overlaps`)
    a dispatch divides nothing and adds D to the loop run in place.

    ``payload_cost_per_byte`` converts a region's *measured* bytes on
    the process-pool wire (the runtime's ``payload_bytes`` stat) into
    dynamic-instruction-equivalents: pickling runs a few orders of
    magnitude faster per byte than the interpreter runs per step, so
    one shipped byte costs a small fraction of a step.  The
    serialization pass adds :meth:`serialization_cost` to the
    ``threads_region_cost`` bar when measured bytes are available,
    raising the bar for regions whose payloads proved expensive.
    """

    cores: int = 56
    chunk_sizes: tuple = (1, 2, 4, 8, 16, 32, 64, 128)
    serial_region_cost: int = 512
    threads_region_cost: int = 2048
    payload_cost_per_byte: float = 0.01
    #: How much faster a worker retires one region step through an
    #: exec-compiled chunk body than through the interpreter's dispatch
    #: loop.  Applied by the small-region serialization pass when region
    #: compilation is on: compute gets cheaper, dispatch overhead does
    #: not, so borderline regions tip toward serialization.  The default
    #: is the model's prior; callers with bench feedback pass a
    #: *measured* value through ``speedup`` instead.
    compiled_speedup: float = 3.0

    def __post_init__(self):
        # A tuple, so the model hashes (it sits in stage memo keys).
        object.__setattr__(self, "chunk_sizes", tuple(self.chunk_sizes))
        if self.cores < 1:
            raise ValueError(f"cores must be at least 1, got {self.cores}")
        bad = [size for size in self.chunk_sizes if size < 1]
        if bad:
            raise ValueError(f"chunk sizes must be at least 1, got {bad}")

    def effective_region_cost(self, cost, compiled=False, speedup=None):
        """A region's estimated per-entry cost under the execution mode.

        ``speedup`` overrides the model's assumed ``compiled_speedup``
        with a measured one (``regionstats.region_feedback``).  The
        result is clamped to at least 1: a region that executes any
        work never costs zero, and the earlier truncating ``int()``
        rounded every ``cost < speedup`` region down to free — which
        let the serialization pass misprice tiny-but-real regions.
        """
        if not compiled or cost is None:
            return cost
        effective = speedup if speedup else self.compiled_speedup
        return max(1, int(cost / max(effective, 1.0)))

    @property
    def chunk_choices(self):
        return len(self.chunk_sizes)

    def serialization_cost(self, payload_bytes):
        """Measured wire bytes -> estimated instruction-equivalents."""
        if not payload_bytes or payload_bytes < 0:
            return 0
        # Clamp like effective_region_cost: bytes actually shipped are
        # never free, even when ``bytes * cost_per_byte`` truncates to 0.
        return max(1, int(payload_bytes * self.payload_cost_per_byte))

    def tile_iterations(self, cost, trip):
        """Minimum iterations one payload should carry, or ``None``.

        A dispatched chunk pays roughly ``threads_region_cost`` of fixed
        overhead (frame setup, scheduling, and for the process pool a
        wire round-trip).
        With a static per-entry region cost and trip count we know the
        per-iteration work, so the smallest chunk whose compute
        amortizes that overhead is ``overhead / per_iteration_work``.
        ``None`` means "no constraint": unknown cost, or every chunk of
        the natural partition is already big enough.
        """
        if not cost or not trip:
            return None
        per_iteration = cost / trip
        if per_iteration <= 0:
            return None
        tile = -(-self.threads_region_cost // int(max(per_iteration, 1)))
        if tile < 2:
            return None
        return min(tile, trip)


DEFAULT_MACHINE = MachineModel()


def compute_overlaps(backend):
    """Whether ``backend``'s workers run region compute at the same time:
    always but on ``threads`` where ``sys._is_gil_enabled`` is missing
    or returns True (two Python chunk bodies never run at once)."""
    if backend != "threads":
        return True
    gil_enabled = getattr(sys, "_is_gil_enabled", None)
    return gil_enabled is not None and not gil_enabled()
