"""Region payload codec for the ``processes`` backend.

The seed runtime shipped every pool worker one ``pickle.dumps(dict)``
holding the module, the full shared storage, and the worker frame —
O(program size) pickled W times per region.  The format that ships
splits that dict by how often each part changes, and a pool worker
keeps nothing between payloads but its decoded modules:

**Module: once per child.**  Module-owned objects are persistent
ids ``("m", index)`` into the deterministic :func:`module_objects`
traversal.  The module's bytes travel with the first payload a pool
child gets of it: the parent keeps, per child, the ledger of module
keys that child holds (at most :data:`MODULE_CACHE_CAP`, least recently
used first out), and a payload to a child whose ledger lacks its module
carries the bytes and the key the child must drop
(:func:`install_module`), so a child holds exactly its ledger and never
misses.  Member ``NaturalLoop`` objects travel as ``("l", function,
header)`` ids — the child recomputes loops from its decoded module, so
region streams carry no loop structure at all.

**State: once per region.**  The shared state — the global-storage
dict plus an ordered *storage table* of every shared list the region's
frames can reach — is one plain ``pickle`` stream (lists of scalars:
C speed, no persistent ids), encoded once and attached to every payload
of the region.  The worker decodes it, runs its chunk against it and
drops it.  (A copy kept alive in the worker across dispatches and
patched with dirty-slot deltas was measured slower at every state size
— "Closed trials" in ROADMAP.md — because per-slot Python bookkeeping
on both sides loses to one C-speed pickle.)

**Storage ids: per region.**  Every reference to a shared storage list
— from worker frames, registers, object tables, pointer args — is
pickled as ``("s", index)`` into *that region's* table and resolved
child-side against the table it just decoded.  This is what preserves
the register→storage aliasing inside one dispatch: a pointer register
and the object-table entry it aims at decode to the same list.

**Table diffs: home.**  The storage table names the way back too: the
worker copies the table it decoded, runs its chunk through the plain
compiled body and ships back ``(table index, slot, value)`` for every
slot that differs from the copy (:func:`diff_table`); the parent writes
each into the same index of the table it encoded.

``VERIFY_COMPILED=1`` travels inside the payload header, so no
child-process configuration is involved: a worker then runs every
compiled chunk twice (compiled, then interpreted) and diffs the two.
"""

import dataclasses
import hashlib
import io
import pickle
import random
from collections import OrderedDict

from repro.analysis.liveness import live_in_registers
from repro.analysis.record import FunctionAnalyses
from repro.emulator.interp import _Frame
from repro.runtime import knobs
from repro.util.errors import ReproError

#: Protocol for every codec stream.  Fixed (not HIGHEST_PROTOCOL) so the
#: parent and a pool worker running a different interpreter version of
#: the same session never disagree about opcodes.
PROTOCOL = 5

#: Persistent-id namespace tags.
MODULE_TAG = "m"  # module-owned objects, by module_objects() index
STORAGE_TAG = "s"  # shared storage lists, by the region's table index
LOOP_TAG = "l"  # NaturalLoops, by (function name, header block name)

#: Modules kept on both sides of the wire: the parent's pickled-bytes
#: LRU (id-keyed; strong references guarantee the id cannot be recycled
#: while the entry exists) and, per pool child, the parent's ledger of
#: the decoded modules that child holds.  Sized above the sessions one
#: process realistically alternates: ``run-procs-warm`` rotates 9 live
#: Sessions through one pool, and at the earlier caps (parent 8, child
#: 4) every operation re-pickled or re-decoded its module and sent its
#: bytes again — warm geomean 15.2 ms/op and 291 KB of 909 KB per round
#: in resent modules; child cap 16 alone gave 9.85 ms and 83 KB, both at
#: 16 gave 8.69 ms, peak RSS unchanged (parent 39.3 MB, children
#: 33.5 MB).
MODULE_CACHE_CAP = 16


# -- deterministic module traversal -------------------------------------------


def module_objects(module):
    """Every module-owned object, in a deterministic traversal order.

    The parent builds its persistent-id map from this enumeration and
    the pool worker resolves persistent ids against the same enumeration
    of its *decoded* copy, so index ``i`` names the same logical object
    on both sides.  Any new object kind the IR grows must be appended
    here (order matters; append-only within one wire format).
    """
    objects = [module]
    for function in module.functions.values():
        objects.append(function)
        objects.extend(function.args)
        for block in function.blocks:
            objects.append(block)
            objects.extend(block.instructions)
        objects.extend(function.annotations)
        objects.extend(function.loop_info.values())
    objects.extend(module.globals.values())
    return objects


# -- picklers / unpicklers -----------------------------------------------------


class _RegionPickler(pickle.Pickler):
    """Pickler writing module objects, shared storages, and loops as pids."""

    def __init__(self, file, persist_map, storage_map, loop_map):
        super().__init__(file, protocol=PROTOCOL)
        self._persist = persist_map
        self._storage = storage_map
        self._loops = loop_map

    def persistent_id(self, obj):
        key = id(obj)
        return (
            self._persist.get(key)
            or self._storage.get(key)
            or self._loops.get(key)
        )


class _RegionUnpickler(pickle.Unpickler):
    """Unpickler resolving pids against the decoded module and the
    region's decoded storage table."""

    def __init__(self, file, objects, storages, loop_resolver):
        super().__init__(file)
        self._objects = objects
        self._storages = storages
        self._loop_resolver = loop_resolver

    def persistent_load(self, pid):
        tag = pid[0]
        if tag == MODULE_TAG:
            return self._objects[pid[1]]
        if tag == STORAGE_TAG:
            return self._storages[pid[1]]
        if tag == LOOP_TAG:
            return self._loop_resolver(pid[1], pid[2])
        raise pickle.UnpicklingError(
            f"unknown persistent id namespace {tag!r}"
        )


# -- parent-side module codec --------------------------------------------------


class ModuleCodec:
    """Pickled-once module bytes plus the persistent-id map for regions.

    ``key`` is the content hash of the module stream — the identity the
    pool workers cache decoded modules under, so two sessions sharing
    one pool (or one session outliving a pool) can never collide on
    stale bytes.  A module the pickler cannot walk (``if``s nested a
    hundred deep chain more blocks than it recurses) is a
    :class:`ReproError` naming it.
    """

    __slots__ = ("module", "key", "module_bytes", "persist_map", "livein")

    def __init__(self, module):
        self.module = module
        buffer = io.BytesIO()
        try:
            pickle.Pickler(buffer, protocol=PROTOCOL).dump(module)
        except RecursionError as exc:
            raise ReproError(
                f"module {module.name!r} cannot be pickled: its IR nests "
                f"deeper than the pickler recurses ({exc})"
            ) from None
        self.module_bytes = buffer.getvalue()
        self.key = hashlib.sha256(self.module_bytes).hexdigest()
        self.persist_map = {
            id(obj): (MODULE_TAG, index)
            for index, obj in enumerate(module_objects(module))
        }
        self.livein = {}  # region's loop headers -> live-in registers

    def livein_for(self, loops):
        label = tuple(
            (loop.header.parent.name, loop.header.name) for loop in loops
        )
        if label not in self.livein:
            self.livein[label] = live_in_registers(loops)
        return self.livein[label]


_MODULE_CODECS = OrderedDict()  # id(module) -> ModuleCodec (LRU)


def module_codec(module):
    """The (cached) :class:`ModuleCodec` for ``module``.

    Keyed by object identity: a session's module object is stable across
    its runs, so the expensive module pickle happens once per session
    (per module), not once per region per worker.
    """
    key = id(module)
    codec = _MODULE_CODECS.get(key)
    if codec is not None and codec.module is module:
        _MODULE_CODECS.move_to_end(key)
        return codec
    codec = ModuleCodec(module)
    _MODULE_CODECS[key] = codec
    while len(_MODULE_CODECS) > MODULE_CACHE_CAP:
        _MODULE_CODECS.popitem(last=False)
    return codec


def reset_codec_caches():
    """Drop every module-global codec cache in this process.

    Called by the test suite's autouse fixture so no test (or session)
    depends on what a previous one pickled or decoded here: parent-side
    module codecs and this process's installed modules (which matter
    when payloads are decoded in-process, as the codec tests do).  What
    a pool's children hold is in the pool's ledgers and is not touched.
    """
    _MODULE_CODECS.clear()
    _DECODED_MODULES.clear()


def _walk_storages(frame, global_storage):
    """Every shared storage list a region's payloads may reference.

    Order only matters parent-side (the child receives the table
    explicitly), but the walk must be *complete*: globals, privatized
    overlays, frame allocas, pointer-typed arguments, and any storage a
    materialized pointer register aims at.
    """
    seen = set()
    storages = []

    def add(storage):
        if id(storage) not in seen:
            seen.add(id(storage))
            storages.append(storage)

    for values in global_storage.values():
        add(values)
    for values in frame.global_overlay.values():
        add(values)
    for storage in frame.objects.values():
        add(storage)
    for value in frame.args:
        if isinstance(value, tuple) and len(value) == 2:
            add(value[0])
    for value in frame.registers.values():
        if isinstance(value, tuple) and len(value) == 2:
            add(value[0])
    return storages


# -- wire format ---------------------------------------------------------------


@dataclasses.dataclass
class WorkerPayload:
    """One pool dispatch.

    ``module_key`` names the module the child must hold: the pool sends
    its bytes ahead to a child whose ledger lacks it.  ``state_bytes``
    (the region's shared state) and ``header_bytes`` (region metadata)
    are identical across the region's workers; ``delta_bytes`` is this
    worker's frame and iterations.
    """

    module_key: str
    state_bytes: bytes
    header_bytes: bytes
    delta_bytes: bytes

    @property
    def wire_bytes(self):
        return (
            len(self.state_bytes)
            + len(self.header_bytes)
            + len(self.delta_bytes)
        )

    def wire(self):
        return (
            self.module_key,
            self.state_bytes,
            self.header_bytes,
            self.delta_bytes,
        )

    def corrupted(self, seed=0):
        """A copy with deterministically flipped delta bytes (chaos only).

        Byte 0 — the pickle ``PROTO`` opcode — is always flipped, so the
        child's decode *fails loudly* rather than deserializing to
        silent garbage; a few seeded positions are flipped on top to
        exercise longer-prefix parses.
        """
        blob = bytearray(self.delta_bytes)
        if blob:
            blob[0] ^= 0xFF
            draw = random.Random(f"corrupt:{seed}:{len(blob)}")
            for _ in range(min(4, len(blob) - 1)):
                blob[draw.randrange(1, len(blob))] ^= 0xFF
        return dataclasses.replace(self, delta_bytes=bytes(blob))


@dataclasses.dataclass
class RegionPayloads:
    """The encoded region: one :class:`WorkerPayload` per active worker,
    and the parent's side of the storage ``table`` their diffs index."""

    codec: ModuleCodec
    workers: list
    table: list

    @property
    def wire_bytes(self):
        return sum(payload.wire_bytes for payload in self.workers)


def _pack_iterations(values):
    """Run-length-compress an iteration list (chunks are arithmetic runs)."""
    n = len(values)
    if n < 8:
        return ("v", list(values))
    runs = []
    i = 0
    while i < n:
        j = i + 1
        if j < n:
            step = values[j] - values[i]
            if step != 0:
                while j + 1 < n and values[j + 1] - values[j] == step:
                    j += 1
                if j > i + 1:
                    runs.append((values[i], j - i + 1, step))
                    i = j + 1
                    continue
        runs.append((values[i], 1, 1))
        i += 1
    if 3 * len(runs) < n:
        return ("r", runs)
    return ("v", list(values))


def _unpack_iterations(packed):
    tag, data = packed
    if tag == "v":
        return data
    values = []
    for start, count, step in data:
        values.extend(range(start, start + count * step, step))
    return values


def encode_region(module, frame, loops, global_storage, max_steps,
                  workers, compile_regions=False):
    """Encode one region's pool payloads.

    ``workers`` are the active ``_Worker`` instances; ``frame`` is the
    enclosing sequential frame whose storages the worker frames alias;
    ``compile_regions`` asks the worker
    to run each chunk through its exec-compiled body
    (``repro.codegen``) where one lowers — the flag travels in the
    header, so children need no environment.
    """
    codec = module_codec(module)
    table = _walk_storages(frame, global_storage)
    storage_map = {
        id(storage): (STORAGE_TAG, index)
        for index, storage in enumerate(table)
    }
    # Plain pickle — shared storages are lists of scalars, so no
    # persistent ids are needed, and the in-stream memo keeps
    # ``global_storage`` values and table entries aliased.
    state_bytes = pickle.dumps(
        {"global_storage": global_storage, "table": table},
        protocol=PROTOCOL,
    )
    loop_map = {
        id(loop): (LOOP_TAG, loop.header.parent.name, loop.header.name)
        for loop in loops
    }

    buffer = io.BytesIO()
    header_pickler = _RegionPickler(
        buffer, codec.persist_map, storage_map, loop_map
    )
    # Positional header (see the matching unpack in decode_payload).
    header_pickler.dump((
        loops,
        max_steps,
        bool(compile_regions),
        bool(knobs.VERIFY_COMPILED),
    ))
    header_bytes = buffer.getvalue()
    # Memo snapshot after the header: each worker's delta pickler is
    # primed with its own copy, so deltas reference header objects (the
    # loops) by memo id and one worker's private objects can never leak
    # into another's stream.
    base_memo = header_pickler.memo.copy()

    needed = codec.livein_for(loops)
    payloads = []
    for worker in workers:
        delta_buffer = io.BytesIO()
        delta_pickler = _RegionPickler(
            delta_buffer, codec.persist_map, storage_map, loop_map
        )
        delta_pickler.memo = dict(base_memo)
        # Positional worker delta: the frame travels as its fields
        # (function, args, live-in registers, objects, overlay) — no
        # class/slot-name framing — plus packed segments and the
        # private sets.  Registers are pruned to the region's live-ins:
        # everything defined inside a member loop is recomputed by the
        # chunk itself.
        delta_pickler.dump((
            worker.frame.function,
            worker.frame.args,
            {
                inst: value
                for inst, value in worker.frame.registers.items()
                if inst in needed
            },
            worker.frame.objects,
            worker.frame.global_overlay,
            [
                (loop, _pack_iterations(iterations))
                for loop, iterations in worker.segments
            ],
            worker.private_globals,
            {inst.uid for inst in worker.private_allocas},
        ))
        payloads.append(WorkerPayload(
            module_key=codec.key,
            state_bytes=state_bytes,
            header_bytes=header_bytes,
            delta_bytes=delta_buffer.getvalue(),
        ))
    return RegionPayloads(codec=codec, workers=payloads, table=table)


# -- pool-worker-side decoding -------------------------------------------------

_DECODED_MODULES = {}  # module key -> (module, objects, analysis records)


def install_module(module_key, module_bytes, drop=None):
    """Decode a module this process will be sent payloads of.

    A pool child runs this before the payload that carried the bytes;
    ``drop`` is the key its ledger in the parent just evicted, so the
    child holds exactly what that ledger names.
    """
    _DECODED_MODULES.pop(drop, None)
    module = pickle.loads(module_bytes)
    _DECODED_MODULES[module_key] = (module, module_objects(module), {})


def _loop_resolver(module, records):
    def resolve(function_name, header_name):
        record = records.get(function_name)
        if record is None:
            record = records[function_name] = FunctionAnalyses(
                module.function(function_name), module
            )
        return record.loops_by_header[header_name]

    return resolve


def decode_payload(wire):
    """Decode one :meth:`WorkerPayload.wire` tuple inside a pool worker.

    Returns the payload dict the chunk entry executes; a module that was
    never installed (:func:`install_module`) is a :class:`ReproError`.
    The decoded shared state belongs to this one payload: the chunk runs
    against it, ``table`` is diffed (:func:`diff_table`), it is dropped.
    """
    module_key, state_bytes, header_bytes, delta_bytes = wire
    if module_key not in _DECODED_MODULES:
        raise ReproError(f"module {module_key[:12]} is not installed here")
    module, objects, records = _DECODED_MODULES[module_key]
    state = pickle.loads(state_bytes)
    unpickler = _RegionUnpickler(
        io.BytesIO(header_bytes + delta_bytes),
        objects,
        state["table"],
        _loop_resolver(module, records),
    )
    (_loops, max_steps, compile_regions,
     verify_compiled) = unpickler.load()
    (function, args, registers, frame_objects, overlay,
     segments, private_globals, private_alloca_uids) = unpickler.load()
    frame = _Frame(function, args)
    frame.registers = registers
    frame.objects = frame_objects
    frame.global_overlay = overlay
    return {
        "module": module,
        # The chunks' function's record, whose loops the segments hold.
        "analyses": records.get(function.name),
        "global_storage": state["global_storage"],
        "table": state["table"],
        "frame": frame,
        "segments": [
            (loop, _unpack_iterations(packed))
            for loop, packed in segments
        ],
        "private_globals": private_globals,
        "private_alloca_uids": private_alloca_uids,
        "max_steps": max_steps,
        "compile_regions": compile_regions,
        "verify_compiled": verify_compiled,
    }


# -- shared-state diffing ------------------------------------------------------

# One comparison, no write log.  Against the log it replaced (a body
# marking every store, an O(writes) diff per chunk; one pinned
# core, 2 workers, warm ``Session.run``, ms): dense24-192 8.0 / 20.5 /
# 89 / 389 -> 7.0 / 15.1 / 53 / 215, the nine benchmark programs each
# 0.74-0.96x.  The log wins only where a worker writes a sliver of a big
# array — four regions of 512 writes into one ``float[20000]`` 14.7 ->
# 21.2 (1.44x), ``float[200000]`` 88 -> 185 (2.1x): the scan costs ~1 ms
# per 20 K slots of every list a worker changed, beside a payload that
# is O(state) to pickle anyway (14.4 MB per run at 200 K).  A workload
# whose workers each write < 1 % of a >= 20 K-slot array (the benchmark
# has none) is what would justify an O(writes) path again.


def diff_table(table, before):
    """``(table index, slot, value)`` for every slot of ``table`` that
    differs from ``before``, a per-list copy taken before the chunk ran.

    Exact because a correct DOALL's shared writes are disjoint across
    workers.  An unchanged list costs one C-speed ``==``; in a changed
    one an untouched slot still holds the copy's object, so identity
    skips it — which keeps an untouched NaN (``nan != nan``) from going
    home over a sibling worker's write.  A slot rewritten to its old
    value is elided; storage first allocated inside the chunk is in no
    table and is never merged.
    """
    diffs = []
    for index, (after, old) in enumerate(zip(table, before)):
        if after == old:
            continue
        for slot, (value, was) in enumerate(zip(after, old)):
            if value is not was and value != was:
                diffs.append((index, slot, value))
    return diffs
