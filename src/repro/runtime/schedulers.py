"""Chunk schedulers: how a DOALL iteration space is split across workers.

Partitioning is decided *once*, here, and shared by every execution
backend (simulated, threads, processes), so the same ``(schedule,
chunk, workers)`` triple yields the same iteration-to-worker assignment
everywhere.  That determinism is what lets the differential conformance
suite compare backends value-for-value: a per-worker reduction
accumulates its iterations in a fixed order, and the join merges worker
results in worker order, so the only allowed divergence from the
sequential run is floating-point reassociation.

The three schedules mirror OpenMP's:

* ``static`` — fixed-size chunks round-robin over the workers (the
  historical behavior of the simulated runtime), cut by stride: worker
  ``w`` takes every ``workers``-th chunk from its own, so a ``chunk=1``
  region costs one ``values[w::workers]`` per worker, not a Python
  round-trip per iteration;
* ``dynamic`` — fixed-size chunks assigned greedily to the least-loaded
  worker, a deterministic model of a work queue;
* ``guided`` — exponentially shrinking chunks (half the fair share of
  the remaining work), assigned greedily, never smaller than ``chunk``.
"""

import itertools

from repro.util.errors import PlanError


def _validate_chunk(chunk):
    if chunk is None:
        return None
    if not isinstance(chunk, int) or isinstance(chunk, bool) or chunk < 1:
        raise PlanError(
            f"chunk size must be a positive integer, got {chunk!r}"
        )
    return chunk


def _validate_workers(workers):
    if (
        not isinstance(workers, int)
        or isinstance(workers, bool)
        or workers < 1
    ):
        raise PlanError(f"workers must be a positive integer, got {workers!r}")
    return workers


class ChunkScheduler:
    """Deterministically partitions iteration values over W workers."""

    name = None

    def __init__(self, chunk=None):
        self.chunk = _validate_chunk(chunk)

    def partition(self, values, workers):
        """Per-worker iteration lists (len == ``workers``, order fixed)."""
        _validate_workers(workers)
        values = list(values)
        assignment = [[] for _ in range(workers)]
        for worker_index, chunk in self._deal(values, workers):
            assignment[worker_index].extend(chunk)
        return assignment

    def _deal(self, values, workers):
        """Yield (worker index, chunk of iteration values)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} chunk={self.chunk}>"


def _fixed_chunks(values, size):
    return [values[i : i + size] for i in range(0, len(values), size)]


def _least_loaded(loads):
    """Index of the worker with the fewest assigned iterations (ties: lowest)."""
    best = 0
    for index in range(1, len(loads)):
        if loads[index] < loads[best]:
            best = index
    return best


class StaticScheduler(ChunkScheduler):
    """Fixed-size chunks, round-robin.  ``chunk`` defaults to 1 (cyclic).

    Chunk ``k`` is worker ``k % workers``'s, so a worker's share is every
    ``workers``-th chunk from its own — a slice, not a deal of one chunk
    (for ``chunk=1``: one iteration) per Python round-trip; the deal it
    must equal is ``tests/support/reference_deal.py``.
    """

    name = "static"

    def partition(self, values, workers):
        _validate_workers(workers)
        values = list(values)
        if self.chunk in (None, 1):
            return [values[first::workers] for first in range(workers)]
        chunks = _fixed_chunks(values, self.chunk)
        return [
            list(itertools.chain.from_iterable(chunks[first::workers]))
            for first in range(workers)
        ]


class DynamicScheduler(ChunkScheduler):
    """Fixed-size chunks to the least-loaded worker (work-queue model)."""

    name = "dynamic"

    def _deal(self, values, workers):
        size = self.chunk or 1
        loads = [0] * workers
        for chunk in _fixed_chunks(values, size):
            index = _least_loaded(loads)
            loads[index] += len(chunk)
            yield index, chunk


class GuidedScheduler(ChunkScheduler):
    """Shrinking chunks (half the fair share of what remains), greedy."""

    name = "guided"

    def _deal(self, values, workers):
        minimum = self.chunk or 1
        loads = [0] * workers
        cursor = 0
        while cursor < len(values):
            remaining = len(values) - cursor
            size = max(minimum, remaining // (2 * workers))
            chunk = values[cursor : cursor + size]
            cursor += len(chunk)
            index = _least_loaded(loads)
            loads[index] += len(chunk)
            yield index, chunk


SCHEDULERS = {
    scheduler.name: scheduler
    for scheduler in (StaticScheduler, DynamicScheduler, GuidedScheduler)
}


def schedule_names():
    return sorted(SCHEDULERS)


def make_scheduler(schedule, chunk=None):
    """A :class:`ChunkScheduler` for a schedule name (or pass one through)."""
    if isinstance(schedule, ChunkScheduler):
        return schedule
    if schedule not in SCHEDULERS:
        raise PlanError(
            f"unknown schedule {schedule!r}; choose from {schedule_names()}"
        )
    return SCHEDULERS[schedule](chunk)
