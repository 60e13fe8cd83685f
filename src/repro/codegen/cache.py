"""Compiled-entry cache: one weak-keyed dict per module object.

Compiled functions close over IR *objects* (alloca keys, live-in
register keys, callee functions), so an entry is only valid for the
exact module instance it was compiled from.  A
:class:`weakref.WeakKeyDictionary` keyed by the module object makes a
stale entry impossible — a pool child that evicts and re-decodes a
module gets new objects and lowers their bodies again — and lets an
evicted module drop its entries.

``None`` entries memoize lowering refusals so an unsupported loop costs
one failed compile, not one per chunk.
"""

import time
import weakref

from repro.analysis.record import FunctionAnalyses
from repro.codegen.lower import compile_chunk
from repro.codegen.seq import compile_sequence

_FN_CACHE = weakref.WeakKeyDictionary()

STATS = {
    "compiles": 0,
    "hits": 0,
    "fallbacks": 0,
    "seconds": 0.0,
}


def compiled_chunk(module, loop, analyses=None,
                   logged=None):  # ignored; benchmarks/e2e still passes it
    """The cached :class:`CompiledChunk` for ``loop``, or ``None``.

    ``analyses`` is the record of the loop's function, whose facts the
    lowering reads (the session's, the run's or the pool child's); a
    caller with none gets a record of its own built on a miss.
    ``None`` means the lowering refused the loop (or codegen itself
    failed) — run it interpreted.  Never raises.
    """
    function = loop.header.parent
    key = ("chunk", function.name, loop.header.name)
    return _cached(module, key, lambda: compile_chunk(
        analyses or FunctionAnalyses(function, module), loop
    ))


def compiled_sequence(analyses, stops):
    """The cached :class:`CompiledSequence` for the body of the function
    whose record is ``analyses``, or ``None``.

    ``stops`` is the region-stop spec from
    :func:`repro.codegen.seq.sequence_stops`; it is part of the cache
    key, so the same module under a different plan lowers separately.
    Same never-fail contract as :func:`compiled_chunk`.
    """
    key = ("seq", analyses.function.name, tuple(stops))
    return _cached(
        analyses.module, key, lambda: compile_sequence(analyses, stops),
    )


def _cached(module, key, build):
    per_module = _FN_CACHE.get(module)
    if per_module is None:
        per_module = _FN_CACHE[module] = {}
    if key in per_module:
        STATS["hits"] += 1
        return per_module[key]
    start = time.perf_counter()
    try:
        entry = build()
        STATS["compiles"] += 1
    except Exception:
        # A refusal (``Unsupported``) or a codegen bug alike: fallback,
        # never fail — the interpreter can complete the run.
        entry = None
        STATS["fallbacks"] += 1
    STATS["seconds"] += time.perf_counter() - start
    per_module[key] = entry
    return entry


def reset():
    """Drop all cached entries and zero the counters (test isolation)."""
    _FN_CACHE.clear()
    STATS.update({"compiles": 0, "hits": 0, "fallbacks": 0, "seconds": 0.0})


def stats():
    """A snapshot of the compile/hit/fallback/time counters."""
    return dict(STATS)
