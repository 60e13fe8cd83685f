"""Test-only oracle: the ``static`` schedule dealt one chunk at a time.

This is the partition ``repro.runtime.schedulers.StaticScheduler`` shipped
before it moved onto strided slices: cut the iteration values into
fixed-size chunks and deal chunk ``k`` to worker ``k % workers``, one
Python round-trip per chunk.  Slow — every benchmark region runs
``chunk=1``, so that is one round-trip per *iteration* — but it is the
definition of OpenMP's ``schedule(static, chunk)``.
``tests/runtime/test_executor.py`` requires the shipped partition to
agree with it exactly.
"""


def static_round_robin(values, workers, chunk=None):
    """Per-worker iteration lists (len == ``workers``), dealt in order."""
    values = list(values)
    size = chunk or 1
    assignment = [[] for _ in range(workers)]
    chunks = [values[i : i + size] for i in range(0, len(values), size)]
    for index, dealt in enumerate(chunks):
        assignment[index % workers].extend(dealt)
    return assignment
