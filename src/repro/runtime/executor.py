"""Parallel runtime: the dispatch loop that executes DOALL plans.

The paper's evaluation characterizes plans analytically; this module goes
further and *runs* them.  A :class:`ParallelInterpreter` executes the
program sequentially until control reaches a planned region (the *next
stop*), then

1. takes the region's prepared record (:class:`_PreparedRegion`: the
   member loops from the run's forest — the caller's own when it handed
   one in, a Session's record, so a warm run discovers no loops, else
   found once per function — their schedulers and bound getters, the
   privatization plan and the lock map, built on the region's first
   dispatch and kept on the region until anything it was built from
   changes), evaluates the canonical iteration space and partitions it
   with a :class:`~repro.runtime.schedulers.ChunkScheduler` (static /
   dynamic / guided — decided once, shared by every backend); a worker
   keeps its chunk lists and their total, and one with none is never
   dispatched,
2. builds one privatized frame per worker from the plan, with

   * per-worker private copies of the induction variable and every
     variable the recipe privatizes,
   * reduction variables initialized to the operator identity per worker
     and merged (in worker order, deterministically) at the join,
   * firstprivate copies seeded from the shared value, lastprivate
     written back by the worker that executed the final iteration,
   * the registers the member loops read and do not define (their
     live-ins), pointers among them re-aimed at the private copies,

3. picks the region's backend and hands it the
   :class:`~repro.runtime.backends.ParallelRegion` — ``simulated`` (the
   seeded virtual-thread interleaver: the race-detection oracle),
   ``threads`` (real OS threads, shared storage, real locks), or
   ``processes`` (real OS processes fed by the
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
A run dispatches every region exactly as it was planned.

Data races that a *wrong* plan would introduce show up under the
``simulated`` backend as real nondeterminism across scheduler seeds,
while correct plans produce exactly the sequential result (modulo
floating-point reduction reassociation).
"""

import operator
import time

from repro.analysis.liveness import live_in_registers
from repro.analysis.loops import find_natural_loops
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
from repro.ir.values import GlobalVariable
from repro.planner.recipes import (
    as_region,
    recipes_from_annotations,
    recipes_from_plan,
)
from repro.runtime import knobs
from repro.runtime.backends import ParallelRegion, get_backend
from repro.runtime.schedulers import make_scheduler
from repro.util.errors import PlanError
from repro.util.regionstats import RegionStats

class _Worker:
    """One worker executing its chunk of every member loop of a region.

    ``segments`` holds one ``(loop, iterations)`` pair per member; the
    worker drains them in order (member A's chunk, then member B's) with
    no barrier in between — the simulated backend steps workers through
    their segments independently, and the real backends run the segment
    list inside one thread/process dispatch.
    """

    __slots__ = (
        "index",
        "segments",
        "size",
        "frame",
        "done",
        "waiting_for",
        "held",
        "steps",
        "seconds",
        "private_globals",
        "private_allocas",
    )

    def __init__(self, index, segments):
        self.index = index
        self.segments = segments  # [(loop, iteration values), ...]
        # Iterations over all segments; a worker of none gets no job.
        self.size = sum(len(iterations) for _loop, iterations in segments)
        self.frame = None
        self.done = not self.size
        self.waiting_for = None  # lock name when blocked
        self.held = set()
        self.steps = 0
        self.seconds = 0.0
        # Set with the frame: privatized global names, Alloca instructions.
        self.private_globals = self.private_allocas = None


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


def _recipe_key(region):
    """A snapshot of what a region's prepared record read of its recipes.

    The storages compare by identity, so a recipe edited in place — a
    chunk, a storage added, swapped or dropped, a reduction's operator —
    snapshots differently.
    """
    return (
        region.removed_sync_uids,
        region.tile,
        [
            (
                recipe.header,
                recipe.chunk,
                list(recipe.privatized),
                list(recipe.firstprivate),
                list(recipe.lastprivate),
                list(recipe.reductions),
            )
            for recipe in region.recipes
        ],
    )


class _PreparedRegion:
    """What every dispatch of one region reuses, built on its first.

    Built from ``key`` — the run's schedule and chunk override and the
    :func:`_recipe_key` snapshot of the region's recipes — the function
    the region runs in and its member ``loops``;
    :meth:`ParallelInterpreter._prepared_region` rebuilds it when any of
    them changes.  ``privates`` is the privatization plan, one
    ``(storage, global name or None, template, firstprivate)`` per
    private storage in first-wins order: a worker's copy is
    ``list(template)``, or of the shared value for firstprivate (the
    zero template when the storage has none yet).  ``reductions`` holds
    one ``(storage, global name or None, merge)`` per reduction.
    Nothing here depends on a run or holds an interpreter.
    """

    __slots__ = (
        "key", "function", "loops", "region", "label", "fused", "chunk",
        "members", "resume", "privates", "inductions", "live_in",
        "global_slots", "alloca_slots", "private_globals", "private_allocas",
        "critical", "reductions",
    )

    def __init__(self, region, function, loops, key):
        self.key = key
        self.function = function
        self.loops = loops
        self.region = region
        self.label, self.fused = region.label, region.fused
        schedule, chunk, _recipes = key
        self.chunk = chunk if chunk is not None else region.recipes[0].chunk
        self.members = [
            (
                loop,
                recipe,
                make_scheduler(
                    schedule, chunk if chunk is not None else recipe.chunk
                ),
                tuple(
                    operand_getter(bound) for bound in (
                        loop.canonical.lower,
                        loop.canonical.upper,
                        loop.canonical.step,
                    )
                ),
            )
            for loop, recipe in zip(loops, region.recipes)
        ]
        # Control resumes after the *last* member; fusion legality
        # guarantees nothing but induction glue lives in between.
        self.resume = function.block(loops[-1].canonical.exit)
        recipe = region.merged_recipe()
        self.privates = []
        self.reductions = []  # one per (storage, op) of the merged recipe
        seen = set()

        def privatize(storage, template, firstprivate=False):
            if id(storage) in seen:
                return
            seen.add(id(storage))
            name = (
                storage.name if isinstance(storage, GlobalVariable) else None
            )
            self.privates.append((storage, name, template, firstprivate))

        for loop in loops:
            privatize(loop.canonical.induction, [0])
        for storage in recipe.privatized:
            privatize(storage, _zeros_for(storage))
        for storage in recipe.firstprivate:
            privatize(storage, _zeros_for(storage), firstprivate=True)
        for storage, op in recipe.reductions:
            privatize(storage, identity_slots(_value_type(storage), op))
            self.reductions.append((
                storage,
                storage.name if isinstance(storage, GlobalVariable) else None,
                REDUCIBLE_OPS[op][0],
            ))
        for storage in recipe.lastprivate:
            # Already-private storages (e.g. firstprivate-seeded scratch)
            # keep their seed; plain lastprivate starts zeroed.
            privatize(storage, _zeros_for(storage))
        slots = {
            id(storage): index
            for index, (storage, _n, _t, _f) in enumerate(self.privates)
        }
        # A fused member's induction alloca may never have executed in
        # the parent frame (its preheader is skipped by the fused
        # takeover), so its pointer register is materialized directly.
        self.inductions = [
            (loop.canonical.induction, slots[id(loop.canonical.induction)])
            for loop in loops
            if not isinstance(loop.canonical.induction, GlobalVariable)
        ]
        self.live_in = sorted(
            live_in_registers(loops), key=lambda inst: inst.uid
        )
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


class ParallelInterpreter(Interpreter):
    """Interpreter that executes selected loops on a pluggable backend.

    ``parallelizations`` may mix
    :class:`~repro.planner.recipes.LoopParallelization` (one loop, one
    region) and :class:`~repro.planner.recipes.RegionParallelization`
    (fused) entries.  ``compile_regions`` defaults to
    :class:`~repro.pipeline.config.SessionConfig`'s value.  ``forest``
    (function name -> header name -> natural loop) hands in loops the
    caller already holds (a Session's analysis record); a function it
    does not name has its own found on first use.
    """

    def __init__(self, module, parallelizations, workers=4, seed=0,
                 max_steps=50_000_000, backend="simulated",
                 schedule="static", chunk=None, pool_size=None,
                 prelude=None,  # ignored: benchmarks/e2e still passes it
                 compile_regions=True, forest=None):
        super().__init__(module, max_steps)
        if (
            not isinstance(workers, int)
            or isinstance(workers, bool)
            or workers < 1
        ):
            raise PlanError(
                f"workers must be a positive integer, got {workers!r}"
            )
        self.workers = workers
        self.seed = seed
        self.backend = get_backend(backend)
        self.schedule = schedule
        self.chunk = chunk
        self.pool_size = pool_size  # processes-pool sizing (machine cores)
        self.compile_regions = bool(compile_regions)
        regions = [as_region(p) for p in parallelizations]
        self._regions = {region.header: region for region in regions}
        for region in regions:
            for recipe in region.recipes:
                # Fail fast: a zero/negative chunk must be a PlanError,
                # not an empty (or runaway) partition at execution time.
                make_scheduler(schedule, chunk if chunk is not None
                               else recipe.chunk)
        if not regions:
            make_scheduler(schedule, chunk)  # still validate the names
        self._loops_by_function = dict(forest or {})
        for name, loops in self._loops_by_function.items():
            own = module.functions.get(name)
            if any(loop.header.parent is not own for loop in loops.values()):
                # Its blocks are not the ones this run executes.
                raise PlanError(
                    f"the loop forest handed in for @{name} was not built "
                    "from this module's function"
                )
        self.parallel_regions = []  # RegionStats, in execution order
        self._prepared = {}  # header -> _PreparedRegion, checked once a run
        # Sequential-stretch compilation state: per-function entry memo
        # (keyed by name/verify) and call-mode counters.
        self._seq_entries = {}
        self._verify_safe_memo = {}
        self.sequence_stats = {"compiled": 0, "interpreted": 0}

    def run(self, function_name="main", args=(), profiler=None, loops=None):
        self._prepared = {}
        self.parallel_regions = []
        self.sequence_stats = {"compiled": 0, "interpreted": 0}
        result = super().run(function_name, args, profiler, loops)
        result.parallel_regions = list(self.parallel_regions)
        result.sequence_stats = dict(self.sequence_stats)
        return result

    # -- next stop: loop takeover ----------------------------------------------

    def _maybe_run_parallel_loop(self, next_block, from_block, frame):
        region = self._regions.get(next_block.name)
        if region is None:
            return None
        prepared = self._prepared_region(
            next_block.name, region, frame.function
        )
        if from_block in prepared.loops[0].blocks:
            return None  # back edge: loop already running (shouldn't occur)
        self._execute_parallel_region(prepared, frame)
        return prepared.resume

    def _compiled_region_stop(self, header, frame):
        """Region takeover for compiled sequential stretches.

        No back-edge check: compiled bodies only transfer here from
        outside the region's loop blocks (the lowering refuses anything
        else), and resume at the statically-known canonical exit.
        """
        self._execute_parallel_region(
            self._prepared_region(
                header, self._regions[header], frame.function
            ),
            frame,
        )

    def _prepared_region(self, header, region, function):
        """The :class:`_PreparedRegion` of ``region`` (its first member's
        ``header``) in ``function``: this run's, else the one the region
        keeps if it was built from the same schedule, chunk, recipes,
        function and loops, else a new one the region keeps from now
        on."""
        prepared = self._prepared.get(header)
        if prepared is not None and prepared.function is function:
            return prepared
        loops = [
            self._canonical_loop(function, recipe.header, "parallel")
            for recipe in region.recipes
        ]
        key = (self.schedule, self.chunk, _recipe_key(region))
        prepared = region.prepared
        if (
            prepared is None
            or prepared.function is not function
            or prepared.key != key
            or not all(map(operator.is_, prepared.loops, loops))
        ):
            prepared = _PreparedRegion(region, function, loops, key)
            region.prepared = prepared
        self._prepared[header] = prepared
        return prepared

    def _function_loops(self, function):
        """header name -> natural loop: the handed-in forest's, else found
        once per function per run owner (region takeovers and stop
        resolution read the same)."""
        if function.name not in self._loops_by_function:
            self._loops_by_function[function.name] = {
                loop.header.name: loop
                for loop in find_natural_loops(function)
            }
        return self._loops_by_function[function.name]

    def _canonical_loop(self, function, header_name, role):
        loop = self._function_loops(function).get(header_name)
        if loop is None or loop.canonical is None:
            raise PlanError(
                f"{role} loop {header_name} lacks canonical form"
            )
        return loop

    # -- compiled sequential stretches -----------------------------------------

    def _run_function(self, function, args):
        """Run a function body compiled when region compilation is on.

        The sequential stretches between parallel regions lower to one
        exec-compiled body per function — its loops as loops, each
        planned region one dispatch statement among them
        (:mod:`repro.codegen.seq`); a refused lowering, a profiled run,
        or a :class:`~repro.codegen.runtime.Bailout` falls back to the
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

        Memoized per (name, verify): the stop spec is fixed for this
        interpreter's lifetime.  Under ``VERIFY_COMPILED`` only
        functions whose call graph reaches no planned region compile
        (the oracle replays the whole body, and a region dispatch is not
        replayable); everything else runs interpreted, where chunk-level
        verification still applies.
        """
        if not self.compile_regions or self._profiler is not None:
            return None
        verify = bool(knobs.VERIFY_COMPILED)
        key = (function.name, verify)
        try:
            return self._seq_entries[key]
        except KeyError:
            pass
        stops = codegen_seq.sequence_stops(self._regions, function)
        if verify and (stops or not self._verify_safe(function)):
            result = None
        else:
            entry = codegen_cache.compiled_sequence(
                self.module, function, stops,
                lambda: self._function_loops(function),
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
            if any(b.name in self._regions for b in fn.blocks):
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
        members = self._partition(prepared, frame)
        workers = [
            _Worker(
                index,
                [(loop, assignment[index])
                 for loop, _recipe, _values, assignment in members],
            )
            for index in range(self.workers)
        ]
        stats = RegionStats(
            header=prepared.label,
            fused=prepared.fused,
            schedule=self.schedule,
            workers=self.workers,
            chunk=prepared.chunk,
            iterations=sum(len(values) for _l, _r, values, _a in members),
        )
        region = ParallelRegion(
            loops=prepared.loops, frame=frame, workers=workers,
            critical=prepared.critical, stats=stats,
        )
        self._make_worker_frames(prepared, frame, workers)

        backend = self._effective_backend(prepared.region)
        started = time.perf_counter()
        backend.run_region(self, region)
        stats.seconds = time.perf_counter() - started
        if backend is not self.backend:
            stats.backend = (
                f"{self.backend.name}->{stats.backend}(small-region)"
            )
        self._join(workers, members, prepared.reductions, frame)

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

    def _partition(self, prepared, frame):
        """``(loop, recipe, values, per-worker assignment)`` per member."""
        members = []
        for loop, recipe, scheduler, (lower, upper, step) in (
            prepared.members
        ):
            lower, upper, step = (
                lower(self, frame), upper(self, frame), step(self, frame)
            )
            if step <= 0:
                raise PlanError("parallel loops require a positive step")
            values = list(range(lower, upper, step))
            # Tiling caps how many workers get non-empty chunks; the
            # rest are padded empty so worker count stays uniform (the
            # backends only dispatch payloads for non-empty workers).
            partitions = self._partition_count(len(values), prepared.region)
            assignment = scheduler.partition(values, partitions)
            assignment = assignment + [
                [] for _ in range(self.workers - partitions)
            ]
            members.append((loop, recipe, values, assignment))
        return members

    def _partition_count(self, trip, region_par):
        """Workers that get non-empty chunks (tiling floors chunk size)."""
        if not region_par.tile:
            return self.workers
        needed = -(-trip // region_par.tile) if trip else 1
        return max(1, min(self.workers, needed))

    def _effective_backend(self, region_par):
        """The region's backend: the configured one unless a small-region
        override reroutes a ``processes`` dispatch onto threads.

        The override only ever *reduces* dispatch weight; the simulated
        oracle is left untouched so race detection stays
        level-independent.
        """
        if (
            region_par.backend_override == "threads"
            and self.backend.name == "processes"
        ):
            return get_backend("threads")
        return self.backend

    # -- worker frames -----------------------------------------------------------

    def _make_worker_frames(self, prepared, frame, workers):
        """Every worker's privatized frame, from the plan and the parent's."""
        objects = frame.objects
        overlay = frame.global_overlay
        # What each private copy is seeded from, and which shared storage
        # it stands in for (id -> plan slot): the same for every worker.
        seeds = []
        slots = {}
        for slot, (storage, name, template, firstprivate) in enumerate(
            prepared.privates
        ):
            if name is not None:
                shared = self._effective_global(frame, name)
            else:
                shared = objects.get(storage)
            if shared is not None:
                slots[id(shared)] = slot
                if firstprivate:
                    template = shared
            seeds.append(template)
        # The live-in registers, and those among them that point into a
        # shared storage that gets a private copy: re-aimed at the copy.
        parent = frame.registers
        registers = {}
        reaim = []
        for inst in prepared.live_in:
            if inst in parent:
                value = registers[inst] = parent[inst]
                if isinstance(value, tuple) and len(value) == 2:
                    slot = slots.get(id(value[0]))
                    if slot is not None:
                        reaim.append((inst, slot, value[1]))
        for worker in workers:
            copies = list(map(list, seeds))
            worker_frame = _Frame(frame.function, frame.args)
            worker_frame.registers = dict(registers)
            for inst, slot, offset in reaim:
                worker_frame.registers[inst] = (copies[slot], offset)
            for induction, slot in prepared.inductions:
                worker_frame.registers[induction] = (copies[slot], 0)
            worker_frame.global_overlay = dict(overlay)
            for slot, name in prepared.global_slots:
                worker_frame.global_overlay[name] = copies[slot]
            if prepared.alloca_slots:
                # Copy-on-write object table: private entries shadow shared.
                worker_frame.objects = dict(objects)
                for slot, storage in prepared.alloca_slots:
                    worker_frame.objects[storage] = copies[slot]
            else:
                worker_frame.objects = objects  # shared by default
            worker.private_globals = prepared.private_globals
            worker.private_allocas = prepared.private_allocas
            worker.frame = worker_frame

    # -- join -------------------------------------------------------------------

    def _join(self, workers, members, reductions, frame):
        for storage, name, merge in reductions:
            if name is None:
                shared = frame.objects[storage]
                copies = [worker.frame.objects[storage] for worker in workers]
            else:
                shared = self._effective_global(frame, name)
                copies = [
                    worker.frame.global_overlay[name] for worker in workers
                ]
            for private in copies:  # slot by slot, in worker order
                shared[:] = map(merge, shared, private)
        # Lastprivate writes back per member: the worker that executed
        # the member's final iteration owns the sequential final state.
        for segment, (_loop, recipe, values, _assignment) in enumerate(
            members
        ):
            if not recipe.lastprivate:
                continue
            last_value = values[-1] if values else None
            owner = None
            for worker in workers:
                iterations = worker.segments[segment][1]
                if iterations and iterations[-1] == last_value:
                    owner = worker
            if owner is None:
                continue
            for storage in recipe.lastprivate:
                shared = self._shared_storage(storage, frame)
                private = self._private_storage(owner, storage)
                shared[:] = private

    def _effective_global(self, frame, name):
        """The storage a global's name denotes in ``frame`` (overlay-aware)."""
        overlay = frame.global_overlay.get(name)
        if overlay is not None:
            return overlay
        return self._global_storage[name]

    def _shared_storage(self, storage, frame):
        if isinstance(storage, GlobalVariable):
            return self._effective_global(frame, storage.name)
        return frame.objects[storage]

    def _private_storage(self, worker, storage):
        if isinstance(storage, GlobalVariable):
            return worker.frame.global_overlay[storage.name]
        return worker.frame.objects[storage]


def run_parallel(module, parallelizations, function_name="main", **options):
    """Execute ``function_name`` with the given loop parallelizations.

    ``options`` are :class:`ParallelInterpreter`'s keyword parameters
    (``workers``, ``seed``, ``backend``, ``schedule``, ``chunk``,
    ``pool_size``, ``compile_regions``, ``forest``, ...).
    """
    return ParallelInterpreter(module, parallelizations, **options).run(
        function_name
    )


def run_plan(pspdg, plan, **options):
    """Execute a :class:`ProgramPlan` chosen from the PS-PDG.

    The plan's dispatched loops (its optimizer-produced regions when it
    has them, one region per canonical DOALL otherwise) take over with
    PS-PDG-derived privatization and reduction recipes; everything else
    runs sequentially.  The module and the function are the graph's
    own, and so is the loop forest (the analysis record's);
    ``options`` as for :func:`run_parallel`.
    """
    analyses = pspdg.pdg.analyses
    return run_parallel(
        analyses.module,
        recipes_from_plan(pspdg, plan),
        pspdg.function.name,
        forest={pspdg.function.name: analyses.loops_by_header},
        **options,
    )


def run_source_plan(module, function_name="main", **options):
    """Execute the developer's OpenMP plan (all worksharing annotations)."""
    recipes = recipes_from_annotations(module.function(function_name))
    return run_parallel(module, recipes, function_name, **options)
