"""Compiled-entry cache: weak-keyed objects over content-hash source.

Two layers, consulted in order:

1. **Object layer** — a :class:`weakref.WeakKeyDictionary` keyed by the
   module object.  Compiled functions close over IR *objects* (alloca
   keys, live-in register keys, callee functions), so an entry is only
   valid for the exact module instance it was compiled from.  Content
   hashes are not enough here: the processes backend's children cap
   their decoded-module cache and may re-decode the same ``module_key``
   into *new* objects, and a stale entry would then silently write
   through stale alloca keys into orphaned storage.  Weak keying makes
   staleness impossible and lets evicted modules drop their entries.

2. **Source layer** — lowered *source text* plus position-independent
   ref descriptors (``("func", name)`` / ``("inst", function, uid)``),
   keyed by the wire ``module_key`` (the content hash of the pickled
   module stream).  When the object layer misses but the source layer
   hits, the cached source is re-``exec``'d against refs re-resolved in
   the new module — skipping the lowering itself, which is the
   expensive half.  A pool child that evicted a module re-decodes it
   and lowers nothing again; a forked child inherits what the parent
   had lowered by then and lowers the rest once.  Memoized refusals live
   here too, so an unsupported loop is refused once per *content*, not
   once per module object lifetime.

``None`` entries memoize lowering refusals so an unsupported loop costs
one failed compile, not one per chunk.
"""

import time
import weakref
from collections import OrderedDict

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.codegen.lower import Unsupported, compile_chunk, exec_chunk
from repro.codegen.seq import compile_sequence, exec_sequence

_FN_CACHE = weakref.WeakKeyDictionary()

#: (module_key, kind, ...identity) -> None (memoized refusal) or
#: (source, ref descriptors).  Bounded LRU; survives module re-decodes
#: and is inherited by forked pool children.
_SOURCE_CACHE = OrderedDict()
_SOURCE_CAP = 512

#: module -> {function name -> {uid -> instruction}} (weak, lazy).
_INST_INDEX = weakref.WeakKeyDictionary()

_MISSING = object()

STATS = {
    "compiles": 0,
    "hits": 0,
    "source_hits": 0,
    "fallbacks": 0,
    "seconds": 0.0,
}


def compiled_chunk(module, loop, module_key=None, outer=None,
                   logged=None):  # ignored; benchmarks/e2e still passes it
    """The cached :class:`CompiledChunk` for ``loop``, or ``None``.

    ``None`` means the lowering refused the loop (or codegen itself
    failed) — run it interpreted.  Never raises.  ``outer`` (an
    interchanged nest's outer loop) selects the pair-iterating variant
    and is part of both cache keys.
    """
    key = ("chunk", loop.header.parent.name, loop.header.name,
           outer.header.name if outer is not None else None)
    return _cached(
        module, key, module_key,
        lambda: compile_chunk(loop, module_key=module_key, outer=outer),
    )


def compiled_sequence(module, function, stops, loops, module_key=None):
    """The cached :class:`CompiledSequence` for a function body, or ``None``.

    ``stops`` is the content-only region-stop spec from
    :func:`repro.codegen.seq.sequence_stops`; it is part of both cache
    keys, so the same module under a different plan lowers separately.
    ``loops()`` is the function's forest (header name -> natural loop),
    asked for only when the body has to be lowered.  Same never-fail
    contract as :func:`compiled_chunk`.
    """
    key = ("seq", function.name, tuple(stops))
    return _cached(
        module, key, module_key,
        lambda: compile_sequence(function, stops, loops(),
                                 module_key=module_key),
    )


def _cached(module, key, module_key, build):
    per_module = _FN_CACHE.get(module)
    if per_module is None:
        per_module = _FN_CACHE[module] = {}
    if key in per_module:
        STATS["hits"] += 1
        return per_module[key]
    source_key = None
    if module_key is not None:
        source_key = (module_key,) + key
        entry = _from_source(module, source_key, module_key)
        if entry is not _MISSING:
            per_module[key] = entry
            return entry
    start = time.perf_counter()
    try:
        entry = build()
        STATS["compiles"] += 1
        if source_key is not None:
            try:
                _remember_source(
                    source_key, (entry.source, _describe_refs(entry.refs))
                )
            except Unsupported:
                pass  # refs not position-independent; skip
    except Unsupported:
        entry = None
        STATS["fallbacks"] += 1
        if source_key is not None:
            _remember_source(source_key, None)
    except Exception:
        # Fallback, never fail: a codegen bug must not take down a run
        # the interpreter can complete.  Not memoized by content: a bug
        # may be transient (e.g. an interrupted compile).
        entry = None
        STATS["fallbacks"] += 1
    STATS["seconds"] += time.perf_counter() - start
    per_module[key] = entry
    return entry


# -- the source layer ---------------------------------------------------------


def _from_source(module, source_key, module_key):
    """Rebuild an entry from cached source, or ``_MISSING`` on a miss."""
    cached = _SOURCE_CACHE.get(source_key, _MISSING)
    if cached is _MISSING:
        return _MISSING
    _SOURCE_CACHE.move_to_end(source_key)
    if cached is None:  # memoized refusal survives module re-decodes
        STATS["source_hits"] += 1
        return None
    source, descriptors = cached
    start = time.perf_counter()
    try:
        refs = _resolve_refs(module, descriptors)
        _mkey, kind = source_key[:2]
        if kind == "chunk":
            _mkey, _kind, function, header, _outer = source_key
            entry = exec_chunk(
                source, refs, function, header, module_key=module_key,
            )
        else:
            _mkey, _kind, function, stops = source_key
            entry = exec_sequence(
                source, refs, function, stops, module_key=module_key,
            )
    except Exception:
        # Resolution failed (the hash matched but the module differs?):
        # drop the entry and let the caller re-lower from scratch.
        _SOURCE_CACHE.pop(source_key, None)
        return _MISSING
    STATS["source_hits"] += 1
    STATS["seconds"] += time.perf_counter() - start
    return entry


def _describe_refs(refs):
    descriptors = []
    for obj in refs:
        if isinstance(obj, Instruction):
            descriptors.append(
                ("inst", obj.parent.parent.name, obj.uid)
            )
        elif isinstance(obj, Function):
            descriptors.append(("func", obj.name))
        else:
            raise Unsupported(f"unshareable ref {type(obj).__name__}")
    return tuple(descriptors)


def _resolve_refs(module, descriptors):
    refs = []
    for descriptor in descriptors:
        if descriptor[0] == "func":
            refs.append(module.function(descriptor[1]))
        else:
            _kind, function_name, uid = descriptor
            refs.append(_instruction_index(module, function_name)[uid])
    return refs


def _instruction_index(module, function_name):
    per_module = _INST_INDEX.get(module)
    if per_module is None:
        per_module = _INST_INDEX[module] = {}
    index = per_module.get(function_name)
    if index is None:
        index = {
            inst.uid: inst
            for inst in module.function(function_name).instructions()
        }
        per_module[function_name] = index
    return index


def _remember_source(source_key, value):
    _SOURCE_CACHE[source_key] = value
    _SOURCE_CACHE.move_to_end(source_key)
    while len(_SOURCE_CACHE) > _SOURCE_CAP:
        _SOURCE_CACHE.popitem(last=False)


def reset():
    """Drop all cached entries and zero the counters (test isolation)."""
    _FN_CACHE.clear()
    _SOURCE_CACHE.clear()
    _INST_INDEX.clear()
    STATS.update({
        "compiles": 0, "hits": 0, "source_hits": 0, "fallbacks": 0,
        "seconds": 0.0,
    })


def stats():
    """A snapshot of the compile/hit/fallback/time counters."""
    return dict(STATS)
