"""Parallel runtime: the dispatch loop that executes DOALL plans.

The paper's evaluation characterizes plans analytically; this module goes
further and *runs* them.  A :class:`ParallelInterpreter` executes the
program sequentially until control reaches a planned region (the *next
stop*), then

1. takes the region's one runtime record, its :class:`PreparedRegion`
   (bound to its function once, by :func:`prepare_plan`, and looked up
   by its header block), evaluates the canonical
   iteration bounds and, when they, the worker count or the run's
   schedule or chunk differ from the region's last entry, partitions the
   iteration space with a
   :class:`~repro.runtime.schedulers.ChunkScheduler` (static / dynamic /
   guided — decided once, shared by every backend) into a new memo that
   replaces the record's; a worker keeps its chunk lists and their
   total, and one with none is never dispatched,
2. builds one privatized frame per worker from the plan — the parent's
   object table and global overlay shared unless an alloca or a global
   is private — with

   * per-worker private copies of the induction variable and every
     variable the recipe privatizes,
   * reduction variables initialized to the operator identity per worker
     and merged (in worker order, deterministically) at the join,
   * firstprivate copies seeded from the shared value, lastprivate
     written back by the worker that executed the final iteration,
   * the registers the member loops read and do not define (their
     live-ins), pointers among them re-aimed at the private copies,

3. picks the region's backend and calls its ``run_region`` with the
   record, the enclosing frame, the workers and the region's stats —
   ``simulated`` (the seeded virtual-thread interleaver: the
   race-detection oracle), ``threads`` (real OS threads, shared storage,
   real locks), or ``processes`` (real OS processes fed by the
   :mod:`repro.runtime.payload` codec, supervised, failing over to
   ``threads`` once its retries run out),
4. joins: merges reductions in worker order and writes back lastprivate
   values, and
5. records: completes the region's
   :class:`~repro.util.regionstats.RegionStats` (the counter block the
   backend incremented) and publishes it once.

Everything else has an owner elsewhere: recipes are derived by
:mod:`repro.planner.recipes`, each backend owns its execution strategy
(:mod:`repro.runtime.backends`), and the published stats feed the next
run's plan through :class:`repro.planner.calibration.CalibrationStore`.
A run dispatches every region exactly as it was planned, and only
prepared records, each keyed by its header block.

Data races that a *wrong* plan would introduce show up under the
``simulated`` backend as real nondeterminism across scheduler seeds,
while correct plans produce exactly the sequential result (modulo
floating-point reduction reassociation).
"""

import operator
import time

from repro.analysis.liveness import live_in_registers
from repro.analysis.record import FunctionAnalyses
from repro.analysis.reductions import REDUCIBLE_OPS, identity_slots
from repro.codegen import cache as codegen_cache
from repro.codegen import runtime as codegen_runtime
from repro.codegen import seq as codegen_seq
from repro.emulator.interp import (
    Interpreter,
    _Frame,
    operand_getter,
    zero_storage,
)
from repro.ir.instructions import Call
from repro.ir.types import PointerType
from repro.ir.values import GlobalVariable
from repro.runtime import knobs
from repro.runtime.backends import get_backend
from repro.runtime.schedulers import _validate_workers, make_scheduler
from repro.util.errors import PlanError
from repro.util.regionstats import RegionStats

class _Worker:
    """One worker executing its chunk of every member loop of a region.

    ``segments`` holds one ``(loop, iterations)`` pair per member (the
    partition memo's, never written); the worker drains them in order
    (member A's chunk, then member B's) with no barrier in between — the
    simulated backend steps workers through their segments
    independently, and the real backends run the segment list inside one
    thread/process dispatch.
    """

    __slots__ = (
        "index", "segments", "size", "frame", "done", "waiting_for", "held",
        "steps", "seconds", "private_globals", "private_allocas",
    )

    def __init__(self, index, segments, size, frame, prepared):
        self.index = index
        self.segments = segments  # [(loop, iteration values), ...]
        self.size = size  # iterations in all; a worker of none gets no job
        self.frame = frame
        self.done = not size
        self.waiting_for = None  # lock name when blocked
        self.held = set()
        self.steps = 0
        self.seconds = 0.0
        # Privatized global names, Alloca instructions.
        self.private_globals = prepared.private_globals
        self.private_allocas = prepared.private_allocas


def _partition(prepared, key):
    """The partition memo of an entry keyed ``(schedule, chunk, bounds,
    workers)``: the tuple ``(key, segments, sizes, iterations,
    owners)`` — per worker its ``segments`` and their ``sizes``, the
    region's ``iterations``, and per lastprivate member the ``owners``'
    ``([(storage, global name or None), ...], worker)``.  Never edited:
    a differing entry replaces it whole."""
    schedule, chunk, bounds, workers = key
    assignments = []
    owners = []
    iterations = 0
    for index, (loop, recipe) in enumerate(
        zip(prepared.loops, prepared.region.recipes)
    ):
        lower, upper, step = bounds[3 * index:3 * index + 3]
        if step <= 0:
            raise PlanError("parallel loops require a positive step")
        values = list(range(lower, upper, step))
        # Tiling caps how many workers get non-empty chunks; the rest
        # are padded empty so worker count stays uniform (the backends
        # only dispatch payloads for non-empty workers).
        partitions = workers
        if prepared.tile:
            needed = -(-len(values) // prepared.tile) or 1
            partitions = max(1, min(workers, needed))
        scheduler = make_scheduler(
            schedule, chunk if chunk is not None else recipe.chunk
        )
        assignment = scheduler.partition(values, partitions) + [
            [] for _ in range(workers - partitions)
        ]
        assignments.append(assignment)
        iterations += len(values)
        # Lastprivate writes back per member: the worker that executes
        # the member's final iteration owns the sequential final state.
        if recipe.lastprivate and values:
            owner = next(
                worker for worker, chunk_values in enumerate(assignment)
                if chunk_values and chunk_values[-1] == values[-1]
            )
            owners.append((
                [(s, _global_name(s)) for s in recipe.lastprivate], owner
            ))
    segments = [
        [
            (loop, assignment[worker])
            for loop, assignment in zip(prepared.loops, assignments)
        ]
        for worker in range(workers)
    ]
    sizes = [
        sum(len(chunk_values) for _loop, chunk_values in worker_segments)
        for worker_segments in segments
    ]
    return key, segments, sizes, iterations, owners


def _global_name(storage):
    return storage.name if isinstance(storage, GlobalVariable) else None


def _storage(frame, storage, name, global_storage):
    """What ``storage`` (global ``name``, or an alloca when ``None``)
    denotes in ``frame``: its object, else its overlay's or the global
    storage."""
    if name is None:
        return frame.objects[storage]
    overlay = frame.global_overlay
    return overlay[name] if name in overlay else global_storage[name]


def _value_type(storage):
    if isinstance(storage, GlobalVariable):
        return storage.value_type
    return storage.allocated_type


def _zeros_for(storage):
    return zero_storage(_value_type(storage))


def _critical_region_map(function, removed_sync_uids=frozenset()):
    """block name -> (lock key, region block set) for critical/atomic.

    Annotations whose uid the optimizer's sync-elimination pass put in
    ``removed_sync_uids`` contribute no lock: their guarded objects were
    proven free of cross-worker dependence at this region's loop level.
    """
    mapping = {}
    for annotation in function.annotations:
        key = annotation.lock_key
        if key is None or annotation.uid in removed_sync_uids:
            continue
        blocks = set(annotation.block_names)
        for block_name in blocks:
            mapping[block_name] = (key, blocks)
    return mapping


class PreparedRegion:
    """One planned region as every dispatch of it runs, built once.

    Built from a plan ``region`` (a
    :class:`~repro.planner.plans.RegionDescriptor`), the ``function`` it
    runs in and that function's loops by header; a member without
    canonical form is a :class:`PlanError`.  It keeps the descriptor's
    label, ``chunk`` (the first member's), override and tile.
    ``bounds`` reads every member's ``(lower, upper, step)`` in turn.
    ``privates`` is the privatization plan, one ``(storage, global name
    or None, template, firstprivate)`` per private storage in first-wins
    order: a worker's copy is ``list(template)``, or of the shared value
    for firstprivate (the zero template when the storage has none yet).
    ``reductions`` holds one ``(storage, global name or None, merge)``
    per distinct ``(storage, op)`` of the members: members sharing a
    same-op reduction accumulate into one per-worker copy, merged once at
    the join (commutativity makes the grouping unobservable).  ``plan``
    is the memo the records of one :func:`prepare_plan` share.  Filled
    on the dispatching thread before a backend runs, never by a worker:
    ``split`` (:func:`_partition`), ``locks`` (the ``threads``
    backend's, for ``critical``) and ``entries`` (loop -> compiled
    chunk).  Nothing here depends on a run.
    """

    __slots__ = (
        "region", "function", "loops", "headers", "label",
        "fused", "chunk", "backend_override", "tile", "bounds", "resume",
        "privates", "inductions", "live_in", "pointers", "global_slots",
        "alloca_slots", "private_globals", "private_allocas", "critical",
        "reductions", "plan", "split", "locks", "entries",
    )

    def __init__(self, region, function, loops_by_header):
        self.region = region
        self.function = function
        self.headers = region.headers
        self.label = region.label
        self.fused = len(self.headers) > 1
        self.chunk = region.recipes[0].chunk
        self.backend_override = region.backend_override
        self.tile = region.tile
        loops = self.loops = []
        for header in self.headers:
            loop = loops_by_header.get(header)
            if loop is None or loop.canonical is None:
                raise PlanError(f"parallel loop {header} lacks canonical form")
            loops.append(loop)
        self.bounds = [
            operand_getter(bound)
            for loop in loops
            for bound in (
                loop.canonical.lower, loop.canonical.upper, loop.canonical.step
            )
        ]
        # Control resumes after the *last* member; fusion legality
        # guarantees nothing but induction glue lives in between.
        self.resume = function.block(loops[-1].canonical.exit)
        # Storage -> (template, firstprivate), the first listing wins:
        # inductions, privatized, firstprivate, reduced, lastprivate.
        # Storages hash by identity.
        privates = {loop.canonical.induction: ([0], False) for loop in loops}
        recipes = region.recipes
        for firstprivate, role in (
            (False, "privatized"), (True, "firstprivate")
        ):
            for recipe in recipes:
                for storage in getattr(recipe, role):
                    if storage not in privates:
                        privates[storage] = (_zeros_for(storage), firstprivate)
        reductions = dict.fromkeys(
            [pair for recipe in recipes for pair in recipe.reductions]
        )
        for storage, op in reductions:
            if storage not in privates:
                privates[storage] = (
                    identity_slots(_value_type(storage), op), False
                )
        for recipe in recipes:
            for storage in recipe.lastprivate:
                # Already-private storages (e.g. firstprivate-seeded
                # scratch) keep their seed; plain lastprivate starts
                # zeroed.
                if storage not in privates:
                    privates[storage] = (_zeros_for(storage), False)
        self.privates = [
            (storage, _global_name(storage), template, firstprivate)
            for storage, (template, firstprivate) in privates.items()
        ]
        self.reductions = [
            (storage, _global_name(storage), REDUCIBLE_OPS[op][0])
            for storage, op in reductions
        ]
        slots = dict(zip(privates, range(len(privates))))
        # A fused member's induction alloca may never have executed in
        # the parent frame (its preheader is skipped by the fused
        # takeover), so its pointer register is materialized directly.
        self.inductions = [
            (loop.canonical.induction, slots[loop.canonical.induction])
            for loop in loops
            if not isinstance(loop.canonical.induction, GlobalVariable)
        ]
        self.live_in = sorted(
            live_in_registers(loops), key=operator.attrgetter("uid")
        )
        self.pointers = [
            inst for inst in self.live_in
            if isinstance(inst.type, PointerType)
        ]
        # Where each copy goes: a global's into the overlay, an alloca's
        # into the object table.
        self.global_slots = [
            (slot, name)
            for slot, (_s, name, _t, _f) in enumerate(self.privates)
            if name is not None
        ]
        self.alloca_slots = [
            (slot, storage)
            for slot, (storage, name, _t, _f) in enumerate(self.privates)
            if name is None
        ]
        self.private_globals = {name for _slot, name in self.global_slots}
        self.private_allocas = {
            storage for _slot, storage in self.alloca_slots
        }
        self.critical = _critical_region_map(
            function, region.removed_sync_uids
        )
        self.plan = self.split = self.locks = self.entries = None


def prepare_plan(regions, function, loops_by_header):
    """``regions`` prepared in ``function`` over its loops, as the tuple
    of :class:`PreparedRegion` a run dispatches.

    The records share one ``plan`` memo — ``(the tuple, header block
    -> record, function -> region stops)`` — which a run handed this
    very tuple reuses, so the dispatch table and each function's stop
    spec (:func:`repro.codegen.seq.sequence_stops`) are computed once
    per plan, never per run.
    """
    records = tuple(
        PreparedRegion(region, function, loops_by_header)
        for region in regions
    )
    plan = _dispatch_plan(records)
    for record in records:
        record.plan = plan
    return records


def _dispatch_plan(records):
    """``(records, header block -> record, {})``, a run's dispatch memo;
    an entry that is not a prepared record is a :class:`PlanError`."""
    table = {}
    for record in records:
        if not isinstance(record, PreparedRegion):
            label = getattr(
                record, "label", getattr(record, "header", record)
            )
            raise PlanError(
                f"region {label} is not prepared: bind it to its function "
                "with prepare_plan(regions, function, loops_by_header)"
            )
        table[record.loops[0].header] = record
    return records, table, {}


class ParallelInterpreter(Interpreter):
    """Interpreter that executes selected loops on a pluggable backend.

    ``parallelizations`` are :class:`PreparedRegion` records, bound to
    their functions by :func:`prepare_plan` (several calls' records may
    be concatenated); an unprepared descriptor or recipe, or a record
    of another module's function, is a :class:`PlanError`.  A record
    dispatches where control reaches its header block.
    ``compile_regions`` defaults to
    :class:`~repro.pipeline.config.SessionConfig`'s value.
    ``analyses`` is the caller's analysis record of a function of
    ``module`` (a Session's): the sequence tier and the chunk lowerings
    read it and its siblings; without one, the run builds its own
    records, one per function on first use.
    """

    def __init__(self, module, parallelizations, workers=4, seed=0,
                 max_steps=50_000_000, backend="simulated",
                 schedule="static", chunk=None, pool_size=None,
                 prelude=None,  # ignored: benchmarks/e2e still passes it
                 compile_regions=True, analyses=None):
        super().__init__(module, max_steps)
        self.workers = _validate_workers(workers)
        self.seed = seed
        self.backend = get_backend(backend)
        self.schedule = schedule
        self.chunk = chunk
        self.pool_size = pool_size  # processes-pool sizing (machine cores)
        self.compile_regions = bool(compile_regions)
        make_scheduler(schedule, chunk)  # fail fast on the run's overrides
        plan = parallelizations and getattr(parallelizations[0], "plan", None)
        if not plan or plan[0] is not parallelizations:
            plan = _dispatch_plan(tuple(parallelizations))
        functions = module.functions
        for record in plan[0]:
            name = record.function.name
            if name not in functions or functions[name] is not record.function:
                raise PlanError(
                    f"region {record.label} was prepared in another "
                    f"module's @{name}; prepare_plan it in this module's"
                )
        self._regions = plan[1]  # header block -> its prepared record
        self._stops = plan[2]  # function -> its region-stop spec
        if analyses is not None and (
            functions.get(analyses.function.name) is not analyses.function
        ):
            # Its blocks are not the ones this run executes.
            raise PlanError(
                f"the analysis record handed in for "
                f"@{analyses.function.name} was not built from this "
                "module's function"
            )
        self._analyses = analyses
        self.parallel_regions = []  # RegionStats, in execution order
        self.shims = None  # the threads backend's, one per worker index
        # Sequential-stretch compilation state: per-function entry memo
        # (keyed by name/verify) and call-mode counters.
        self._seq_entries = {}
        self._verify_safe_memo = {}
        self.sequence_stats = {"compiled": 0, "interpreted": 0}

    def run(self, function_name="main", args=()):
        self.shims = None
        self.parallel_regions = []
        self.sequence_stats = {"compiled": 0, "interpreted": 0}
        result = super().run(function_name, args)
        result.parallel_regions = list(self.parallel_regions)
        result.sequence_stats = dict(self.sequence_stats)
        return result

    # -- next stop: loop takeover ----------------------------------------------

    def _maybe_run_parallel_loop(self, next_block, from_block, frame):
        if next_block not in self._regions:
            return None
        prepared = self._regions[next_block]
        if from_block in prepared.loops[0].blocks:
            return None  # back edge: loop already running (shouldn't occur)
        self._execute_parallel_region(prepared, frame)
        return prepared.resume

    def _compiled_region_stop(self, header, frame):
        """Region takeover at the ``header`` block for compiled stretches.

        No back-edge check: compiled bodies only transfer here from
        outside the region's loop blocks (the lowering refuses anything
        else), and resume at the statically-known canonical exit.
        """
        self._execute_parallel_region(self._regions[header], frame)

    def analyses_of(self, function):
        """``function``'s record: the handed-in record's sibling, else
        built once per function per run owner."""
        if self._analyses is None:
            self._analyses = FunctionAnalyses(function, self.module)
        return self._analyses.of(function)

    # -- compiled sequential stretches -----------------------------------------

    def _run_function(self, function, args):
        """Run a function body compiled when region compilation is on.

        The sequential stretches between parallel regions lower to one
        exec-compiled body per function — its loops as loops, each
        planned region one dispatch statement among them
        (:mod:`repro.codegen.seq`); a refused lowering or a
        :class:`~repro.codegen.runtime.Bailout` falls back to the
        inherited interpreter loop — never fail.  Compiled ``call``
        sites re-enter here, so callees compile recursively.
        """
        planned = self._sequence_entry(function)
        if planned is None:
            return super()._run_function(function, args)
        entry, verify = planned
        mode, value = codegen_runtime.execute_sequence(
            entry, self, function, args, self._interpret_function,
            verify=verify,
        )
        self.sequence_stats[mode] += 1
        return value

    def _interpret_function(self, function, args):
        """The base interpreter loop (Bailout fallback, verify authority)."""
        return Interpreter._run_function(self, function, args)

    def _sequence_entry(self, function):
        """``(CompiledSequence, verify)`` for this function body — the
        entry ``None`` when the lowering refused it, which counts as an
        interpreted call — or ``None``: it is not compiled at all.

        Memoized per (name, verify); the stop spec is kept per plan
        (:func:`prepare_plan`).  Under
        ``VERIFY_COMPILED`` only functions whose call graph reaches no
        planned region compile (the oracle replays the whole body, and a
        region dispatch is not replayable); everything else runs
        interpreted, where chunk-level verification still applies.
        """
        if not self.compile_regions:
            return None
        verify = bool(knobs.VERIFY_COMPILED)
        key = (function.name, verify)
        try:
            return self._seq_entries[key]
        except KeyError:
            pass
        stops = self._stops.get(function)
        if stops is None:
            stops = self._stops[function] = codegen_seq.sequence_stops(
                self._regions, function
            )
        if verify and (stops or not self._verify_safe(function)):
            result = None
        else:
            entry = codegen_cache.compiled_sequence(
                self.analyses_of(function), stops
            )
            result = (entry, verify)
        self._seq_entries[key] = result
        return result

    def _verify_safe(self, function):
        """True when no planned region is reachable through the call graph."""
        cached = self._verify_safe_memo.get(function.name)
        if cached is not None:
            return cached
        safe = True
        seen = set()
        stack = [function]
        while stack:
            fn = stack.pop()
            if fn.name in seen:
                continue
            seen.add(fn.name)
            if any(block in self._regions for block in fn.blocks):
                safe = False
                break
            stack.extend(
                inst.callee for inst in fn.instructions()
                if isinstance(inst, Call)
            )
        self._verify_safe_memo[function.name] = safe
        return safe

    # -- the parallel region: partition, dispatch, join, record ------------------

    def _execute_parallel_region(self, prepared, frame):
        bounds = tuple([get(self, frame) for get in prepared.bounds])
        key = (self.schedule, self.chunk, bounds, self.workers)
        split = prepared.split  # read once: another run may replace it
        if split is None or split[0] != key:
            split = prepared.split = _partition(prepared, key)
        _key, segments, sizes, iterations, owners = split
        workers = self._make_workers(prepared, segments, sizes, frame)
        stats = RegionStats(
            header=prepared.label,
            fused=prepared.fused,
            schedule=self.schedule,
            workers=self.workers,
            chunk=self.chunk if self.chunk is not None else prepared.chunk,
            iterations=iterations,
        )
        # A small-region override reroutes a ``processes`` dispatch onto
        # threads.  It only ever *reduces* dispatch weight; the simulated
        # oracle is left untouched so race detection stays
        # level-independent.
        backend = self.backend
        if (
            prepared.backend_override == "threads"
            and backend.name == "processes"
        ):
            backend = get_backend("threads")
        started = time.perf_counter()
        backend.run_region(self, prepared, frame, workers, stats)
        stats.seconds = time.perf_counter() - started
        if backend is not self.backend:
            stats.backend = (
                f"{self.backend.name}->{stats.backend}(small-region)"
            )
        if prepared.reductions or owners:
            self._join(workers, owners, prepared.reductions, frame)

        stats.per_worker = [
            {
                "worker": worker.index,
                "iterations": worker.size,
                "steps": worker.steps,
                "seconds": worker.seconds,
            }
            for worker in workers
        ]
        self.parallel_regions.append(stats)

    # -- worker frames -----------------------------------------------------------

    def _make_workers(self, prepared, segments, sizes, frame):
        """One worker per index, each on its privatized frame from the
        plan and the parent's."""
        objects = frame.objects
        overlay = frame.global_overlay
        parent = frame.registers
        registers = {}
        for inst in prepared.live_in:
            if inst in parent:
                registers[inst] = parent[inst]
        # What each private copy is seeded from, and which shared storage
        # it stands in for: the same for every worker.
        seeds = []
        shared = []
        for slot, (storage, name, template, firstprivate) in enumerate(
            prepared.privates
        ):
            if name is not None:
                current = overlay[name] if name in overlay else (
                    self._global_storage[name]
                )
            else:
                current = objects[storage] if storage in objects else None
            if current is not None:
                shared.append((slot, current))
                if firstprivate:
                    template = current
            seeds.append(template)
        # The live-in pointers into a shared storage that gets a private
        # copy: re-aimed at the copy.
        reaim = []
        for inst in prepared.pointers:
            if inst in registers:
                target, offset = registers[inst]
                for slot, storage in shared:
                    if storage is target:
                        reaim.append((inst, slot, offset))
                        break
        workers = []
        for index in range(self.workers):
            copies = list(map(list, seeds))
            worker_frame = _Frame(frame.function, frame.args)
            worker_frame.registers = dict(registers)
            for inst, slot, offset in reaim:
                worker_frame.registers[inst] = (copies[slot], offset)
            for induction, slot in prepared.inductions:
                worker_frame.registers[induction] = (copies[slot], 0)
            if prepared.global_slots:
                worker_frame.global_overlay = dict(overlay)
                for slot, name in prepared.global_slots:
                    worker_frame.global_overlay[name] = copies[slot]
            else:
                worker_frame.global_overlay = overlay  # read only
            if prepared.alloca_slots:
                # Copy-on-write object table: private entries shadow shared.
                worker_frame.objects = dict(objects)
                for slot, storage in prepared.alloca_slots:
                    worker_frame.objects[storage] = copies[slot]
            else:
                worker_frame.objects = objects  # shared by default
            workers.append(_Worker(
                index, segments[index], sizes[index], worker_frame, prepared,
            ))
        return workers

    # -- join -------------------------------------------------------------------

    def _join(self, workers, owners, reductions, frame):
        global_storage = self._global_storage
        for storage, name, merge in reductions:
            shared = _storage(frame, storage, name, global_storage)
            for worker in workers:  # slot by slot, in worker order
                private = (
                    worker.frame.objects[storage] if name is None
                    else worker.frame.global_overlay[name]
                )
                shared[:] = map(merge, shared, private)
        for lastprivate, owner in owners:
            for storage, name in lastprivate:
                _storage(frame, storage, name, global_storage)[:] = _storage(
                    workers[owner].frame, storage, name, global_storage
                )


def run_parallel(module, parallelizations, function_name="main", **options):
    """Execute ``function_name`` with the given loop parallelizations.

    ``options`` are :class:`ParallelInterpreter`'s keyword parameters
    (``workers``, ``seed``, ``backend``, ``schedule``, ``chunk``,
    ``pool_size``, ``compile_regions``, ``analyses``, ...).
    """
    return ParallelInterpreter(module, parallelizations, **options).run(
        function_name
    )
