"""Region payload codec for the ``processes`` backend (wire format v2).

The seed runtime shipped every pool worker one ``pickle.dumps(dict)``
holding the module, the full shared storage, and the worker frame —
O(program size) pickled W times per region.  Format v1 (PR 4) made the
module travel once per pool epoch and the shared prelude once per
region.  Format v2 makes the prelude itself *resident*: pool workers
keep the decoded shared state (global storage plus every shared storage
list) alive across dispatches, keyed by a content hash, and the parent
ships only the slots it actually dirtied since the previous dispatch.

Five cooperating pieces:

**Resident shared state.**  Each parent interpreter owns a
:class:`PreludeCodec` (one *stream* of dispatches).  The first region of
a stream ships the full state — the global-storage dict plus an ordered
*storage table* of every shared list — and its content hash becomes the
stream's key.  Pool workers cache the decoded state per stream
(:data:`_RESIDENT_STATES`).  Every later region ships a **dirty-slot
delta**: the parent runs with :meth:`Interpreter.enable_write_log`
active *between* regions, so the delta is exactly the ``(storage, slot)``
pairs the sequential code, the diff merges, and the joins wrote.  Keys
advance along a hash chain (``next = H(prev + H(delta))``) rooted in the
full-state content hash; a worker whose resident key matches neither the
expected nor the next key (it joined the pool mid-epoch, or the chain
diverged) reports a **prelude miss** and the parent retries that one
payload with the full state attached — the same handshake the module
codec already uses.

**Storage persistent ids.**  Shared storage lists never re-travel once
resident: every reference to one — from worker frames, registers,
object tables, pointer args — is pickled as ``("s", index)`` into the
storage table, resolved child-side against the resident table.  This is
what preserves the register→storage aliasing across *dispatches* the
way v1's shared-memo trick preserved it within one dispatch.

**Write rollback.**  A chunk's own writes would make one pool worker's
resident copy diverge from its siblings'.  After diffing, the child
rolls its write log back (restoring each slot's pre-run value), so the
resident state always equals the parent's pre-dispatch image and every
payload of a region can run in any pool process in any order.

**Module byte cache.**  Unchanged from v1: module-owned objects are
persistent ids ``("m", index)`` into the deterministic
:func:`module_objects` traversal, with the bytes broadcast once per pool
recycle epoch and a miss/retry fallback.  v2 additionally encodes the
member ``NaturalLoop`` objects as ``("l", function, header)`` ids —
the child recomputes loops from its decoded module, so region streams
no longer carry loop structure at all.

**Write-log diffing.**  Unchanged from v1: the worker's shared-state
diff is computed from its store-path write log, byte-for-byte what the
snapshot+full-scan reference produces (:func:`diff_snapshot` — the
``VERIFY_DIFFS`` cross-check and the differential tests run it).

Verification knobs (environment or module globals; they travel inside
the payload, so no child-process configuration is involved):
``VERIFY_DIFFS=1`` cross-checks the write-log diff against the snapshot
diff in every chunk; ``VERIFY_PRELUDE=1`` ships the full state alongside
every delta and fails loudly if a worker's delta-applied resident state
diverges from it.
"""

import dataclasses
import hashlib
import io
import itertools
import math
import pickle
import random
from collections import OrderedDict

from repro.analysis.loops import find_natural_loops
from repro.emulator.interp import _Frame
from repro.runtime import knobs

#: Protocol for every codec stream.  Fixed (not HIGHEST_PROTOCOL) so the
#: parent and a pool worker running a different interpreter version of
#: the same session never disagree about opcodes.
PROTOCOL = 5

#: Persistent-id namespace tags.
MODULE_TAG = "m"  # module-owned objects, by module_objects() index
STORAGE_TAG = "s"  # shared storage lists, by resident-table index
LOOP_TAG = "l"  # NaturalLoops, by (function name, header block name)

#: Parent-side module codecs kept alive (id-keyed; strong references
#: guarantee the id cannot be recycled while the entry exists).
_MODULE_CODEC_CAP = 8

#: Pool-worker-side decoded modules kept per process.
_DECODED_MODULE_CAP = 4

#: Pool-worker-side resident prelude states kept per process (one per
#: parent-interpreter stream; LRU so interleaved sessions can share a
#: pool without unbounded memory).
_RESIDENT_CAP = 4

#: Resident storage-table entries before the parent declares the stream
#: too wide to track (regions entered from many short-lived frames) and
#: falls back to full-state shipping.
_TABLE_CAP = 4096

#: Delta-history window cap: how many past chain keys a dirty delta can
#: catch a pool worker up from.  The pool hands payloads to whichever
#: process is free, so a busy process can skip whole regions and fall
#: several keys behind; shipping the *union* dirty map (values are the
#: current ones, so applying it from any windowed state is exact) keeps
#: those processes on the resident path instead of full-state retries.
#: The live window is adaptive — it starts at ``_WINDOW_MIN``, grows by
#: one key per observed prelude miss, and decays while misses stay
#: absent — because the union's wire cost scales with its depth.
_WINDOW_KEYS = 8
_WINDOW_MIN = 2

#: Miss-free regions before the adaptive window shrinks by one key.
_WINDOW_DECAY_REGIONS = 16

#: Union-dirty entries before the window starts evicting its oldest
#: keys (a worker that far behind re-ships the full state instead).
_WINDOW_DIRTY_CAP = 8192


# The debug/verification knobs live in ``runtime/knobs.py`` (one
# parser, refreshable between tests); these module attributes re-export
# the knob objects so existing call sites and test monkeypatching of
# ``payload.VERIFY_DIFFS`` et al. keep working — a knob is truthy
# exactly when its environment variable is set truthy.
VERIFY_DIFFS = knobs.VERIFY_DIFFS
VERIFY_PRELUDE = knobs.VERIFY_PRELUDE
VERIFY_COMPILED = knobs.VERIFY_COMPILED


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

    def __init__(self, file, persist_map, storage_map=None, loop_map=None):
        super().__init__(file, protocol=PROTOCOL)
        self._persist = persist_map
        self._storage = storage_map
        self._loops = loop_map

    def persistent_id(self, obj):
        pid = self._persist.get(id(obj))
        if pid is not None:
            return pid
        if self._storage is not None:
            pid = self._storage.get(id(obj))
            if pid is not None:
                return pid
        if self._loops is not None:
            return self._loops.get(id(obj))
        return None


class _RegionUnpickler(pickle.Unpickler):
    """Unpickler resolving pids against decoded module / resident state.

    ``storages`` is the live resident table *list*: entries appended
    between the header and delta ``load()`` calls (dirty-delta
    application) are visible to later resolutions.
    """

    def __init__(self, file, objects, storages=None, loop_resolver=None):
        super().__init__(file)
        self._objects = objects
        self._storages = storages
        self._loop_resolver = loop_resolver

    def persistent_load(self, pid):
        tag = pid[0]
        if tag == MODULE_TAG:
            return self._objects[pid[1]]
        if tag == STORAGE_TAG:
            if self._storages is None:
                raise pickle.UnpicklingError(
                    "storage persistent id with no resident table"
                )
            return self._storages[pid[1]]
        if tag == LOOP_TAG:
            if self._loop_resolver is None:
                raise pickle.UnpicklingError(
                    "loop persistent id with no loop resolver"
                )
            return self._loop_resolver(pid[1], pid[2])
        raise pickle.UnpicklingError(
            f"unknown persistent id namespace {tag!r}"
        )


# -- parent-side module codec --------------------------------------------------


class ModuleCodec:
    """Pickled-once module bytes plus the persistent-id map for regions.

    ``key`` is the content hash of the module stream — the identity the
    pool workers cache decoded modules under, so two sessions sharing
    one pool (or one session surviving a pool recycle) can never collide
    on stale bytes.
    """

    __slots__ = ("module", "key", "module_bytes", "persist_map")

    def __init__(self, module):
        self.module = module
        buffer = io.BytesIO()
        pickle.Pickler(buffer, protocol=PROTOCOL).dump(module)
        self.module_bytes = buffer.getvalue()
        self.key = hashlib.sha256(self.module_bytes).hexdigest()
        self.persist_map = {
            id(obj): (MODULE_TAG, index)
            for index, obj in enumerate(module_objects(module))
        }


_MODULE_CODECS = OrderedDict()  # id(module) -> ModuleCodec (LRU)

#: (pool epoch, module key) pairs whose bytes were already broadcast;
#: pruned to the current epoch on every encode.
_SHIPPED_MODULES = set()


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
    while len(_MODULE_CODECS) > _MODULE_CODEC_CAP:
        _MODULE_CODECS.popitem(last=False)
    return codec


def invalidate_pool_caches():
    """Drop every cache tied to the current pool generation's workers.

    Called on pool recycle: the recycled processes' decoded-module and
    resident-prelude caches died with them, so the broadcast bookkeeping
    (and this process's own decode caches, which forked children
    inherit) must not claim otherwise.  The parent-side
    :data:`_MODULE_CODECS` pickled-bytes LRU survives — it is keyed by
    module identity with a content-hash wire key, valid across epochs,
    and re-pickling the whole module per recycle is exactly the
    O(program-size) work it exists to avoid.
    """
    _SHIPPED_MODULES.clear()
    _DECODED_MODULES.clear()
    _RESIDENT_STATES.clear()


def reset_codec_caches():
    """Drop every module-global codec cache in this process.

    Called by the test suite's autouse fixture so no test (or session)
    depends on what a previous one happened to ship: parent-side module
    codecs and broadcast bookkeeping, and this process's decoded-module
    and resident-prelude caches (the latter matter when payloads are
    decoded in-process, as the codec tests do).  Per-interpreter
    :class:`PreludeCodec` state is not process-global and dies with its
    interpreter; the stream-id counter is deliberately never reset, so
    stale resident entries can never collide with a new stream.
    """
    _MODULE_CODECS.clear()
    invalidate_pool_caches()


# -- parent-side resident-prelude codec ---------------------------------------

_STREAM_IDS = itertools.count(1)


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


def live_in_registers(loops):
    """Registers a chunk of these loops can read: operands defined outside.

    Everything defined *inside* a member loop is recomputed by the chunk
    itself, so worker payloads only ship the live-in registers — the SSA
    values (pointers computed before the loop, loop-invariant scalars)
    the body references but never defines.
    """
    from repro.ir.instructions import Instruction

    inside = set()
    for loop in loops:
        for block in loop.blocks:
            inside.update(id(inst) for inst in block.instructions)
    needed = set()
    for loop in loops:
        for block in loop.blocks:
            for inst in block.instructions:
                for operand in inst.operands:
                    if (
                        isinstance(operand, Instruction)
                        and id(operand) not in inside
                    ):
                        needed.add(operand)
    return needed


def _exact_value_match(value, before):
    """``==`` plus the distinctions resident state must not blur.

    The dirty drain elides writes that restored a slot's value — but
    ``==`` alone would also elide ``-0.0`` over ``0.0`` (and a value of
    a different type), silently diverging the workers' resident slots
    from the parent's.  Only equal-comparing values reach the extra
    checks, so the fast path stays one comparison.
    """
    if value != before:
        return False
    if type(value) is not type(before):
        return False
    if isinstance(value, float) and value == 0.0:
        return math.copysign(1.0, value) == math.copysign(1.0, before)
    return True


class PreludeCodec:
    """Parent-side resident-prelude state for one dispatch stream.

    One per parallel interpreter.  Tracks the storage table (the shared
    lists the pool workers hold resident, in persistent-id order), the
    hash-chain key of the state the workers currently hold, and the
    inter-region write log the dirty deltas are drained from.  A
    ``None`` log (or an epoch change, or :meth:`invalidate`) degrades
    every region to full-state shipping — never to wrong results.
    """

    __slots__ = (
        "stream_id", "epoch", "key", "log", "table", "table_ids",
        "persist", "full_len", "livein", "history", "window_target",
        "quiet_regions", "pending_rebind", "handoff_log",
    )

    def __init__(self, log=None):
        self.stream_id = next(_STREAM_IDS)
        self.epoch = None
        self.key = None
        self.log = log
        self.table = []
        self.table_ids = {}
        self.persist = {}  # id(storage) -> ("s", index)
        self.full_len = 0  # last encoded full-state size (bytes)
        self.livein = {}  # region headers -> live-in register set
        # Delta history: [key, cumulative dirty {(index, slot): value},
        # table length at that key], oldest first.  Entry maps stay
        # cumulative (every region's dirty is merged into all of them),
        # so the oldest entry's map is the union delta the wire ships.
        self.history = []
        self.window_target = _WINDOW_MIN
        self.quiet_regions = 0
        self.pending_rebind = False
        self.handoff_log = None

    def invalidate(self):
        """Forget the chain: the next region ships the full state."""
        self.key = None
        self.table = []
        self.table_ids = {}
        self.persist = {}
        self.history = []
        self.pending_rebind = False
        self.handoff_log = None

    def add_storage(self, storage):
        index = len(self.table)
        self.table.append(storage)
        self.table_ids[id(storage)] = index
        self.persist[id(storage)] = (STORAGE_TAG, index)

    def drain_dirty(self):
        """``{(table index, slot): value}`` for every logged table write.

        Writes to storages outside the table are private scratch or
        brand-new storages (those ship whole in ``append``); writes that
        restored the original value are elided.  The log is cleared for
        the next inter-region span.
        """
        dirty = {}
        for (storage_id, slot), (storage, before) in self.log.items():
            index = self.table_ids.get(storage_id)
            if index is None:
                continue
            value = storage[slot]
            if not _exact_value_match(value, before):
                dirty[(index, slot)] = value
        self.log.clear()
        return dirty

    def window(self, dirty):
        """Advance the delta history by this region's dirty map.

        Returns ``(keys, union_dirty_map, append_base)``: the chain
        keys a worker may catch up from, the union dirty map (current
        values — exact from any windowed state), and the table index
        the shipped append pool starts at.  Call with ``self.key`` still
        at the pre-region value and the table not yet extended.
        """
        self.quiet_regions += 1
        if (
            self.quiet_regions >= _WINDOW_DECAY_REGIONS
            and self.window_target > _WINDOW_MIN
        ):
            self.window_target -= 1
            self.quiet_regions = 0
        for entry in self.history:
            entry[1].update(dirty)
        self.history.append([self.key, dict(dirty), len(self.table)])
        # Keeping old keys reachable is only worth a bounded multiple of
        # the traffic the current region genuinely has to ship.  The
        # newest entry is never evicted: with it, workers that ran the
        # previous region stay resident (its size already passed the
        # caller's delta-vs-full-state guard); without it, every payload
        # of every region would miss forever.
        budget = max(256, 4 * len(dirty))
        while len(self.history) > 1 and (
            len(self.history) > self.window_target
            or len(self.history[0][1]) > min(_WINDOW_DIRTY_CAP, budget)
        ):
            self.history.pop(0)
        keys = tuple(entry[0] for entry in self.history)
        return keys, self.history[0][1], self.history[0][2]

    def adopt_log(self, log):
        """Attach a fresh interpreter's write log (Session run handoff).

        A Session reuses one codec across its runs so the hash chain —
        and the pool workers' resident state — survives run boundaries.
        The new interpreter owns brand-new storage lists, so the next
        encode must :meth:`rebind` the table onto them before trusting
        any delta.
        """
        self.pending_rebind = self.key is not None
        self.handoff_log = self.log if self.pending_rebind else None
        self.log = log

    def rebind(self, current):
        """Re-aim the table at a new interpreter's storages via value diff.

        ``current`` is the new run's storage walk.  The pool workers'
        resident state equals the *old* table's values minus the old
        log's pending before-values; every slot where the new storages
        differ from that becomes a synthetic dirty entry in the new log,
        so the normal delta drain ships exactly the state the run
        boundary changed (for a fresh-initialized run, usually a
        fraction of the state).  Returns ``False`` — caller goes cold —
        when the shapes don't line up.
        """
        old_log = self.handoff_log or {}
        self.handoff_log = None
        # The new run's first walk matches the old stream's *cold* walk
        # — the table prefix.  Entries appended later in the old run
        # stay in place (keeping pool-worker table indices aligned);
        # they are inert — the dead run's objects can never be
        # referenced again — but their pending before-values carry over
        # so verification sees a consistent image.
        prefix = len(current)
        if self.log is None or prefix > len(self.table):
            return False
        for new, old in zip(current, self.table):
            if len(new) != len(old):
                return False
        # Recomputed below against every prefix slot, so the new log's
        # run-prefix entries (whose before-values are this run's initial
        # state, not what the workers hold) are superseded wholesale.
        self.log.clear()
        for index, (new, old) in enumerate(zip(current, self.table)):
            old_id = id(old)
            for slot, child_value in enumerate(old):
                entry = old_log.get((old_id, slot))
                if entry is not None:
                    # The old parent wrote this slot after its last
                    # encode: the workers still hold the pre-write value.
                    child_value = entry[1]
                if not _exact_value_match(new[slot], child_value):
                    self.log[(id(new), slot)] = (new, child_value)
            self.table[index] = new
        self.table_ids = {id(s): i for i, s in enumerate(self.table)}
        for key, entry in old_log.items():
            index = self.table_ids.get(key[0])
            if index is not None and index >= prefix:
                self.log[key] = entry
        self.persist = {
            id(s): (STORAGE_TAG, i) for i, s in enumerate(self.table)
        }
        return True

    def note_miss(self):
        """A pool worker fell out of the window: deepen it.

        Called by the backend when a payload comes back with a prelude
        miss; the union delta grows to cover laggards, then decays once
        misses stay absent (the wire cost of the union scales with the
        window depth, and a miss already self-healed via the full-state
        retry, so growth is gentle).
        """
        self.window_target = min(_WINDOW_KEYS, self.window_target + 1)
        self.quiet_regions = 0

    def encode_state(self, global_storage, table=None):
        """Full-state stream: the global-storage dict + the storage table.

        Plain pickle — shared storages are lists of scalars, so no
        persistent ids are needed, and the in-stream memo keeps
        ``global_storage`` values and table entries aliased.
        """
        state_bytes = pickle.dumps(
            {
                "global_storage": global_storage,
                "table": self.table if table is None else table,
            },
            protocol=PROTOCOL,
        )
        self.full_len = len(state_bytes)
        return state_bytes

    def livein_for(self, loops):
        label = tuple(loop.header.name for loop in loops)
        if label not in self.livein:
            self.livein[label] = live_in_registers(loops)
        return self.livein[label]

    def clone(self):
        """An independent copy (tests re-encode a region deterministically)."""
        twin = PreludeCodec(
            log=dict(self.log) if self.log is not None else None
        )
        twin.stream_id = self.stream_id
        twin.epoch = self.epoch
        twin.key = self.key
        twin.table = list(self.table)
        twin.table_ids = dict(self.table_ids)
        twin.persist = dict(self.persist)
        twin.full_len = self.full_len
        twin.livein = dict(self.livein)
        twin.history = [
            [key, dict(dirty), length] for key, dirty, length in self.history
        ]
        twin.window_target = self.window_target
        twin.quiet_regions = self.quiet_regions
        twin.pending_rebind = self.pending_rebind
        twin.handoff_log = (
            dict(self.handoff_log) if self.handoff_log is not None else None
        )
        return twin


# -- wire format ---------------------------------------------------------------


@dataclasses.dataclass
class WorkerPayload:
    """One pool dispatch (wire format v2).

    ``module_bytes`` rides along only on the epoch broadcast or a
    module-miss retry; ``state_bytes`` only on a cold stream, a
    prelude-miss retry, or under ``VERIFY_PRELUDE``.  Steady state is
    ``header_bytes`` (the shared dirty delta + region metadata, identical
    across the region's workers) plus this worker's ``delta_bytes``.
    """

    module_key: str
    module_bytes: bytes  # None when the pool epoch already has them
    stream_id: int
    keys: tuple  # chain keys the delta can catch a worker up from
    next_key: str  # key of the state after this region's delta
    state_bytes: bytes  # full state, or None on the resident path
    verify_state: bool  # compare resident vs state_bytes (VERIFY_PRELUDE)
    header_bytes: bytes
    delta_bytes: bytes

    @property
    def wire_bytes(self):
        return (
            len(self.header_bytes)
            + len(self.delta_bytes)
            + (len(self.state_bytes) if self.state_bytes else 0)
            + (len(self.module_bytes) if self.module_bytes else 0)
        )

    def wire(self):
        return (
            self.module_key,
            self.module_bytes,
            self.stream_id,
            self.keys,
            self.next_key,
            self.state_bytes,
            self.verify_state,
            self.header_bytes,
            self.delta_bytes,
        )

    def with_module(self, codec):
        """A copy carrying the module bytes (miss-retry path)."""
        return dataclasses.replace(self, module_bytes=codec.module_bytes)

    def with_state(self, state_bytes):
        """A copy carrying the full state (prelude-miss retry path)."""
        return dataclasses.replace(
            self, state_bytes=state_bytes, verify_state=False
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
    """The encoded region: one :class:`WorkerPayload` per active worker."""

    codec: ModuleCodec
    prelude: PreludeCodec
    workers: list
    shipped_module: bool
    shipped_state: bool  # full state attached to every payload (cold)
    next_key: str
    _table: list = None  # table snapshot for the lazy state encode
    _global_storage: dict = None
    _state_bytes: bytes = None

    @property
    def wire_bytes(self):
        return sum(payload.wire_bytes for payload in self.workers)

    def state_bytes(self):
        """The region's full-state stream, encoded at most once.

        Lazy: steady-state regions never pay the full pickle; a
        prelude-miss retry (or ``VERIFY_PRELUDE``) forces it.  Safe to
        call mid-collection because the parent applies no worker
        effects until every result is in.
        """
        if self._state_bytes is None:
            self._state_bytes = self.prelude.encode_state(
                self._global_storage, self._table
            )
        return self._state_bytes


def _pack_dirty(dirty_map):
    """Split a dirty map into flat singles and contiguous value runs.

    Dense rewrites (a region refilling a whole array) dominate many
    kernels' deltas; a run ``(index, start, [values...])`` ships one
    value per slot instead of an ``index, slot, value`` triple per slot.
    Returns ``(singles, runs)`` where ``singles`` is the flat
    ``[index, slot, value, ...]`` list for isolated marks.
    """
    by_index = {}
    for (index, slot), value in dirty_map.items():
        by_index.setdefault(index, []).append((slot, value))
    singles = []
    runs = []
    for index in sorted(by_index):
        marks = sorted(by_index[index])
        i = 0
        while i < len(marks):
            j = i
            while j + 1 < len(marks) and marks[j + 1][0] == marks[j][0] + 1:
                j += 1
            if j - i + 1 >= 3:
                runs.append((
                    index, marks[i][0], [value for _s, value in marks[i:j + 1]]
                ))
            else:
                for slot, value in marks[i:j + 1]:
                    singles.extend((index, slot, value))
            i = j + 1
    return singles, runs


def _dirty_cost(singles, runs):
    """Rough wire bytes of a packed dirty delta (full-state guard)."""
    return (
        5 * len(singles)
        + sum(16 + 10 * len(values) for _i, _s, values in runs)
    )


def _pack_iterations(values):
    """Run-length-compress an iteration list (chunks are arithmetic runs)."""
    n = len(values)
    if values and isinstance(values[0], tuple):
        # Interchanged-nest chunks are (outer, inner) pairs — almost
        # always an exact outer-major cross product, which wires as the
        # two factor lists instead of trip(outer)*trip(inner) tuples.
        packed = _pack_pairs(values)
        return packed if packed is not None else ("v", list(values))
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


def _pack_pairs(values):
    """``("x", (outer pack, inner pack))`` for exact cross products."""
    outer = []
    for t, _ in values:
        if not outer or outer[-1] != t:
            outer.append(t)
    count, remainder = divmod(len(values), len(outer))
    if remainder:
        return None
    inner = [i for _t, i in values[:count]]
    if values != [(t, i) for t in outer for i in inner]:
        return None
    return ("x", (_pack_iterations(outer), _pack_iterations(inner)))


def _unpack_iterations(packed):
    tag, data = packed
    if tag == "v":
        return data
    if tag == "x":
        outer = _unpack_iterations(data[0])
        inner = _unpack_iterations(data[1])
        return [(t, i) for t in outer for i in inner]
    values = []
    for start, count, step in data:
        values.extend(range(start, start + count * step, step))
    return values


def encode_region(module, frame, loops, global_storage, max_steps,
                  workers, epoch, prelude=None, compile_regions=False,
                  nest=None):
    """Encode one region's pool payloads.

    ``workers`` are the active ``_Worker`` instances; ``frame`` is the
    enclosing sequential frame whose storages the worker frames alias;
    ``epoch`` identifies the current pool generation (module bytes are
    broadcast, and resident streams reset, once per epoch); ``prelude``
    is the dispatching interpreter's :class:`PreludeCodec` (omitted by
    standalone callers, who then ship full state every region);
    ``compile_regions`` asks the pool worker to run each chunk through
    its exec-compiled body (``repro.codegen``) where one lowers — the
    flag travels in the header, so children need no environment.
    ``nest`` is an interchanged nest's outer loop: it travels in the
    header (by loop reference) and the workers' iteration values are
    ``(outer, inner)`` pairs.
    """
    codec = module_codec(module)
    if prelude is None:
        prelude = PreludeCodec(log=None)
    if prelude.epoch != epoch:
        # Fresh pool generation: the workers' resident states died with
        # the old processes.
        prelude.epoch = epoch
        prelude.invalidate()

    current = _walk_storages(frame, global_storage)
    if prelude.pending_rebind:
        # Session run handoff: the chain survives, but the table must
        # be re-aimed at this run's storage objects (with the state
        # difference turned into synthetic dirty entries) first.
        prelude.pending_rebind = False
        if prelude.key is not None and not prelude.rebind(current):
            prelude.invalidate()
    resident = (
        prelude.key is not None
        and prelude.log is not None
        and len(current) <= _TABLE_CAP
    )
    if resident:
        fresh = [s for s in current if id(s) not in prelude.table_ids]
        if len(prelude.table) + len(fresh) > _TABLE_CAP:
            prelude.invalidate()
            resident = False
    if resident:
        keys, union, append_base = prelude.window(prelude.drain_dirty())
        singles, runs = _pack_dirty(union)
        if prelude.full_len and _dirty_cost(singles, runs) > prelude.full_len:
            # The delta would outweigh the state itself (a region that
            # rewrote most shared slots): re-ship the full state — which
            # also resyncs every pool worker — and restart the chain.
            prelude.invalidate()
            resident = False
    if not resident:
        prelude.invalidate()
        for storage in current:
            prelude.add_storage(storage)
        fresh = []
        singles = []
        runs = []
        keys = ()
        append_base = len(prelude.table)
        if prelude.log is not None:
            prelude.log.clear()

    loop_map = {
        id(loop): (LOOP_TAG, loop.header.parent.name, loop.header.name)
        for loop in list(loops) + ([nest] if nest is not None else [])
    }
    # The append pool (every table storage a windowed worker may still
    # lack) must travel *by value*: exclude it from the header's
    # storage-pid map.  Worker deltas still reference pool storages
    # compactly — via the header pickler's memo.
    header_persist = {
        storage_id: pid
        for storage_id, pid in prelude.persist.items()
        if pid[1] < append_base
    }

    buffer = io.BytesIO()
    header_pickler = _RegionPickler(
        buffer, codec.persist_map, header_persist, loop_map
    )
    # Positional header (see the matching unpack in decode_payload):
    # (loops, nest, max_steps, verify_diffs, compile_regions,
    # verify_compiled, append_base, append pool, dirty singles, dirty
    # runs).  ``append`` is the table suffix from ``append_base`` on —
    # the window's new storages by value, this region's ``fresh`` last.
    header_pickler.dump((
        loops,
        nest,
        max_steps,
        bool(VERIFY_DIFFS),
        bool(compile_regions),
        bool(VERIFY_COMPILED),
        append_base,
        prelude.table[append_base:] + fresh,
        singles,
        runs,
    ))
    header_bytes = buffer.getvalue()
    # Memo snapshot after the header: each worker's delta pickler is
    # primed with its own copy, so deltas reference header objects
    # (loops, append-pool storages) by memo id and one worker's private
    # objects can never leak into another's stream.
    base_memo = header_pickler.memo.copy()
    for storage in fresh:
        prelude.add_storage(storage)

    if resident:
        next_key = hashlib.sha256(
            (prelude.key + hashlib.sha256(header_bytes).hexdigest())
            .encode()
        ).hexdigest()
        state_bytes = None
        if VERIFY_PRELUDE:
            state_bytes = prelude.encode_state(global_storage)
    else:
        state_bytes = prelude.encode_state(global_storage)
        next_key = hashlib.sha256(state_bytes).hexdigest()
    prelude.key = next_key

    needed = prelude.livein_for(loops)
    ship = (epoch, codec.key) not in _SHIPPED_MODULES
    payloads = []
    for worker in workers:
        delta_buffer = io.BytesIO()
        delta_pickler = _RegionPickler(
            delta_buffer, codec.persist_map, prelude.persist, loop_map
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
            module_bytes=codec.module_bytes if ship else None,
            stream_id=prelude.stream_id,
            keys=keys,
            next_key=next_key,
            state_bytes=state_bytes,
            verify_state=bool(VERIFY_PRELUDE and resident),
            header_bytes=header_bytes,
            delta_bytes=delta_buffer.getvalue(),
        ))
    if ship and payloads:
        _SHIPPED_MODULES.add((epoch, codec.key))
        # Entries for dead pool generations can never be consulted again.
        stale = {entry for entry in _SHIPPED_MODULES if entry[0] != epoch}
        _SHIPPED_MODULES.difference_update(stale)
    return RegionPayloads(
        codec=codec,
        prelude=prelude,
        workers=payloads,
        shipped_module=ship,
        shipped_state=state_bytes is not None,
        next_key=next_key,
        _table=list(prelude.table),
        _global_storage=global_storage,
        _state_bytes=state_bytes,
    )


# -- pool-worker-side decoding -------------------------------------------------

_DECODED_MODULES = OrderedDict()  # module key -> (module, objects, loops)


class ResidentState:
    """One stream's resident shared state inside a pool worker."""

    __slots__ = ("key", "global_storage", "table")

    def __init__(self, key, global_storage, table):
        self.key = key
        self.global_storage = global_storage
        self.table = table


_RESIDENT_STATES = OrderedDict()  # stream id -> ResidentState (LRU)


def discard_resident(stream_id):
    """Drop a stream's resident state (worker-side error recovery)."""
    _RESIDENT_STATES.pop(stream_id, None)


def _decoded_module(module_key, module_bytes):
    entry = _DECODED_MODULES.get(module_key)
    if entry is None:
        if module_bytes is None:
            return None
        module = pickle.loads(module_bytes)
        entry = (module, module_objects(module), {})
        _DECODED_MODULES[module_key] = entry
        while len(_DECODED_MODULES) > _DECODED_MODULE_CAP:
            _DECODED_MODULES.popitem(last=False)
    else:
        _DECODED_MODULES.move_to_end(module_key)
    return entry


def _loop_resolver(module, loop_cache):
    def resolve(function_name, header_name):
        loops = loop_cache.get(function_name)
        if loops is None:
            loops = {
                loop.header.name: loop
                for loop in find_natural_loops(module.function(function_name))
            }
            loop_cache[function_name] = loops
        return loops[header_name]

    return resolve


def _install_resident(stream_id, key, state_bytes):
    state = pickle.loads(state_bytes)
    resident = ResidentState(key, state["global_storage"], state["table"])
    _RESIDENT_STATES[stream_id] = resident
    _RESIDENT_STATES.move_to_end(stream_id)
    while len(_RESIDENT_STATES) > _RESIDENT_CAP:
        _RESIDENT_STATES.popitem(last=False)
    return resident


class PreludeVerificationError(ValueError):
    """A ``VERIFY_PRELUDE`` divergence: the oracle caught a real bug.

    Distinct from ordinary decode failures so the supervised dispatch
    path treats it as *fatal*: retrying would re-ship the full (already
    mutated) state and silently bless exactly the unlogged mutation the
    verification mode exists to catch.
    """


def _verify_resident(resident, state_bytes, stream_id):
    fresh = pickle.loads(state_bytes)
    table = fresh["table"]
    if len(table) != len(resident.table):
        raise PreludeVerificationError(
            f"resident prelude diverged (stream {stream_id}): table has "
            f"{len(resident.table)} storages, fresh state {len(table)}"
        )
    for index, (have, want) in enumerate(zip(resident.table, table)):
        if have != want:
            raise PreludeVerificationError(
                f"resident prelude diverged (stream {stream_id}) at "
                f"storage {index}: resident={have!r} fresh={want!r} — "
                "a parent-side mutation bypassed the write log"
            )
    have_names = set(resident.global_storage)
    want_names = set(fresh["global_storage"])
    if have_names != want_names:
        raise PreludeVerificationError(
            f"resident prelude diverged (stream {stream_id}): global "
            f"names {sorted(have_names ^ want_names)} differ"
        )


def decode_payload(wire):
    """Decode one :meth:`WorkerPayload.wire` tuple inside a pool worker.

    Returns ``(payload, miss)``: the payload dict the chunk entry
    executes and ``None``, or ``(None, "module")`` / ``(None,
    "prelude")`` when this worker lacks the module bytes or the resident
    state the payload references (the caller reports the miss and the
    parent retries with the missing stream attached).
    """
    (module_key, module_bytes, stream_id, keys, next_key,
     state_bytes, verify_state, header_bytes, delta_bytes) = wire
    entry = _decoded_module(module_key, module_bytes)
    if entry is None:
        return None, "module"
    module, objects, loop_cache = entry

    resident = _RESIDENT_STATES.get(stream_id)
    known = resident is not None and (
        resident.key == next_key or resident.key in keys
    )
    if state_bytes is not None and not (verify_state and known):
        # Full state (cold stream, miss retry, or verify-with-nothing-
        # to-verify): install and ignore the header's delta sections.
        resident = _install_resident(stream_id, next_key, state_bytes)
        advance = False
    elif not known:
        return None, "prelude"
    else:
        _RESIDENT_STATES.move_to_end(stream_id)
        # A sibling payload of this same region may have applied the
        # delta already (the rollback protocol keeps that exact).
        advance = resident.key != next_key

    unpickler = _RegionUnpickler(
        io.BytesIO(header_bytes + delta_bytes),
        objects,
        resident.table,
        _loop_resolver(module, loop_cache),
    )
    (loops, nest, max_steps, verify_diffs, compile_regions,
     verify_compiled, append_base, append, dirty,
     dirty_runs) = unpickler.load()
    if advance:
        table = resident.table
        # Catch up from wherever in the window this worker is: first
        # the table suffix it lacks, then the union dirty map (values
        # are current, so applying from any windowed state is exact).
        missing = len(table) - append_base
        table.extend(append[missing:])
        flat = iter(dirty)
        for index, slot, value in zip(flat, flat, flat):
            table[index][slot] = value
        for index, start, values in dirty_runs:
            table[index][start:start + len(values)] = values
        resident.key = next_key
    if verify_state and state_bytes is not None and known:
        _verify_resident(resident, state_bytes, stream_id)
    (function, args, registers, frame_objects, overlay,
     segments, private_globals, private_alloca_uids) = unpickler.load()
    frame = _Frame(function, args)
    frame.registers = registers
    frame.objects = frame_objects
    frame.global_overlay = overlay
    return {
        "module": module,
        "module_key": module_key,
        "global_storage": resident.global_storage,
        "frame": frame,
        "segments": [
            (loop, _unpack_iterations(packed))
            for loop, packed in segments
        ],
        "private_globals": private_globals,
        "private_alloca_uids": private_alloca_uids,
        "loops": loops,
        "nest": nest,
        "max_steps": max_steps,
        "verify_diffs": verify_diffs,
        "compile_regions": compile_regions,
        "verify_compiled": verify_compiled,
    }, None


def rollback_writes(log):
    """Undo every logged write (restore each slot's pre-run value).

    The pool worker calls this after diffing so its resident state
    returns to the parent's pre-dispatch image: sibling payloads of the
    same region (and the next region's delta) always find the state the
    parent's hash chain says they should.
    """
    for (_storage_id, slot), (storage, before) in log.items():
        storage[slot] = before


# -- shared-state diffing ------------------------------------------------------
#
# The index, the snapshot, and both diff functions iterate the shared
# objects in the same fixed order (globals in storage-dict order,
# allocas in frame-object order, pointer args by index; slots ascending)
# so the write-log diff is byte-for-byte the snapshot diff.


def shared_index(frame, global_storage, private_alloca_uids):
    """Which objects a worker's writes must flow back through.

    Captured *before* the chunk runs: an alloca first executed inside
    the chunk is per-worker scratch, never merged (matching the reference
    snapshot's pre-run capture).  Returns three ordered lists of
    ``(key, live storage)`` pairs — globals by name, allocas by
    instruction, pointer-typed arguments by index (those alias
    caller-owned storage the parent also shares).
    """
    globals_ = [
        (name, values)
        for name, values in global_storage.items()
        if name not in frame.global_overlay
    ]
    allocas = [
        (inst, storage)
        for inst, storage in frame.objects.items()
        if inst.uid not in private_alloca_uids
    ]
    args = [
        (index, value[0])
        for index, value in enumerate(frame.args)
        if isinstance(value, tuple) and len(value) == 2
    ]
    return globals_, allocas, args


def snapshot_shared(index):
    """Reference pre-run capture: a full copy of every shared object."""
    globals_, allocas, args = index
    return (
        [list(values) for _name, values in globals_],
        [list(storage) for _inst, storage in allocas],
        [list(storage) for _index, storage in args],
    )


def diff_snapshot(snapshot, index):
    """Reference full-scan diff of ``index`` against its pre-run snapshot."""
    globals_before, allocas_before, args_before = snapshot
    globals_, allocas, args = index
    global_diffs = []
    for (name, after), before in zip(globals_, globals_before):
        for slot, value in enumerate(after):
            if value != before[slot]:
                global_diffs.append((name, slot, value))
    alloca_diffs = []
    for (inst, after), before in zip(allocas, allocas_before):
        for slot, value in enumerate(after):
            if value != before[slot]:
                alloca_diffs.append((inst.uid, slot, value))
    arg_diffs = []
    for (index_, after), before in zip(args, args_before):
        for slot, value in enumerate(after):
            if value != before[slot]:
                arg_diffs.append((index_, slot, value))
    return global_diffs, alloca_diffs, arg_diffs


def diff_write_log(log, index):
    """Shared-state diff of ``index`` from the interpreter's write log.

    ``log`` maps ``(id(storage), slot) -> (storage, value before the
    first write)`` — see :meth:`Interpreter.enable_write_log`.  Cost is
    O(dirty slots), and a slot rewritten to its original value is
    elided, exactly as the snapshot scan would.
    """
    marks_by_storage = {}
    for (storage_id, slot), (_storage, before) in log.items():
        marks_by_storage.setdefault(storage_id, []).append((slot, before))
    for marks in marks_by_storage.values():
        marks.sort()

    globals_, allocas, args = index
    global_diffs = []
    for name, values in globals_:
        marks = marks_by_storage.get(id(values))
        if not marks:
            continue
        for slot, before in marks:
            value = values[slot]
            if value != before:
                global_diffs.append((name, slot, value))
    alloca_diffs = []
    for inst, storage in allocas:
        marks = marks_by_storage.get(id(storage))
        if not marks:
            continue
        for slot, before in marks:
            value = storage[slot]
            if value != before:
                alloca_diffs.append((inst.uid, slot, value))
    arg_diffs = []
    for index_, storage in args:
        marks = marks_by_storage.get(id(storage))
        if not marks:
            continue
        for slot, before in marks:
            value = storage[slot]
            if value != before:
                arg_diffs.append((index_, slot, value))
    return global_diffs, alloca_diffs, arg_diffs
