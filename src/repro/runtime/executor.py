"""Parallel runtime: the dispatch loop that executes DOALL plans.

The paper's evaluation characterizes plans analytically; this module goes
further and *runs* them.  A :class:`ParallelInterpreter` executes the
program sequentially until control reaches a planned region (the *next
stop*), then

1. looks the member loops up in the run's forest (the caller's own
   when it handed one in — a Session's record, so a warm run discovers
   no loops — else found once per function), evaluates the canonical
   iteration space and partitions it with a
   :class:`~repro.runtime.schedulers.ChunkScheduler` (static / dynamic /
   guided — decided once, shared by every backend); a worker keeps its
   chunk lists and their total, and one with none is never dispatched,
2. builds one privatized frame per worker, with

   * per-worker private copies of the induction variable and every
     variable the recipe privatizes,
   * reduction variables initialized to the operator identity per worker
     and merged (in worker order, deterministically) at the join,
   * firstprivate copies seeded from the shared value, lastprivate
     written back by the worker that executed the final iteration,

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
(:mod:`repro.runtime.backends`), and divergence detection + re-pricing
for adaptive replanning live behind
:meth:`repro.planner.calibration.ReplanContext.replan`.

Data races that a *wrong* plan would introduce show up under the
``simulated`` backend as real nondeterminism across scheduler seeds,
while correct plans produce exactly the sequential result (modulo
floating-point reduction reassociation).
"""

import time

from repro.analysis.loops import find_natural_loops
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
from repro.ir.types import FLOAT
from repro.ir.values import GlobalVariable
from repro.planner.recipes import (
    as_region,
    recipes_from_annotations,
    recipes_from_plan,
)
from repro.runtime import knobs
from repro.runtime.backends import (
    ParallelRegion,
    SerialBackend,
    get_backend,
)
from repro.runtime.schedulers import make_scheduler
from repro.util.errors import PlanError
from repro.util.regionstats import RegionStats

_IDENTITY = {
    "add": 0,
    "mul": 1,
    "min": float("inf"),
    "max": float("-inf"),
    "and": -1,
    "or": 0,
    "xor": 0,
}


def _shift_assignment(assignment, values, shift):
    """Skewed fusion: re-aim this member's chunks by ``-shift``.

    A uniform dependence distance ``shift`` means iteration ``i`` of
    this member conflicts with iteration ``i - shift`` of the partner
    chunked at the same position, so giving the worker that owns base
    value ``v`` this member's value ``v - shift`` keeps every such pair
    worker-local (and in member order, since segments drain in order).
    Values that shift out of the iteration space leave their base chunk
    uncovered at the far end; those leftovers run on worker 0 — their
    conflict partners fell outside the space, so they conflict with
    no one and any placement is safe.
    """
    space = set(values)
    shifted = []
    covered = set()
    for chunk in assignment:
        moved = [v - shift for v in chunk if (v - shift) in space]
        covered.update(moved)
        shifted.append(moved)
    leftovers = set(space) - covered
    if leftovers:
        shifted[0] = sorted(set(shifted[0]) | leftovers)
    return shifted


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
        "nest",
    )

    def __init__(self, index, segments, nest):
        self.index = index
        self.segments = segments  # [(loop, iteration values), ...]
        self.nest = nest  # interchanged nest's outer Loop (values are pairs)
        # Iterations over all segments; a worker of none gets no job.
        self.size = sum(len(iterations) for _loop, iterations in segments)
        self.frame = None
        self.done = not self.size
        self.waiting_for = None  # lock name when blocked
        self.held = set()
        self.steps = 0
        self.seconds = 0.0
        self.private_globals = set()  # privatized global names
        self.private_allocas = set()  # privatized Alloca instructions


class ParallelInterpreter(Interpreter):
    """Interpreter that executes selected loops on a pluggable backend.

    ``parallelizations`` may mix
    :class:`~repro.planner.recipes.LoopParallelization` (one loop, one
    region) and :class:`~repro.planner.recipes.RegionParallelization`
    (fused) entries.  ``compile_regions`` and ``adaptive`` default to
    :class:`~repro.pipeline.config.SessionConfig`'s values.  ``replan``
    is a planner :class:`~repro.planner.calibration.ReplanContext` (one
    per run); without one, adaptive mode has nothing to re-derive and
    stays off.  ``forest`` (function name -> header name -> natural
    loop) hands in loops the caller already holds (a Session's analysis
    record); a function it does not name has its own found on first use.
    """

    def __init__(self, module, parallelizations, workers=4, seed=0,
                 max_steps=50_000_000, backend="simulated",
                 schedule="static", chunk=None, pool_size=None,
                 prelude=None,  # ignored: benchmarks/e2e still passes it
                 compile_regions=True, adaptive=False,
                 replan=None, forest=None):
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
        self.adaptive = bool(adaptive)
        self.replan_context = replan
        self.replan_events = []
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
        # Sequential-stretch compilation state: per-function entry memo
        # (keyed by name/verify) and call-mode counters.
        self._seq_entries = {}
        self._verify_safe_memo = {}
        self.sequence_stats = {"compiled": 0, "interpreted": 0}

    def run(self, function_name="main", args=(), profiler=None, loops=None):
        self.parallel_regions = []
        self.sequence_stats = {"compiled": 0, "interpreted": 0}
        self.replan_events = []
        result = super().run(function_name, args, profiler, loops)
        result.parallel_regions = list(self.parallel_regions)
        result.sequence_stats = dict(self.sequence_stats)
        result.replan_events = list(self.replan_events)
        return result

    # -- next stop: loop takeover ----------------------------------------------

    def _maybe_run_parallel_loop(self, next_block, from_block, frame):
        region = self._regions.get(next_block.name)
        if region is None:
            return None
        loops, outer = self._region_loops(region, frame)
        # An interchanged nest is keyed (and guarded) at the *outer*
        # header: the whole nest runs in one takeover, and control
        # resumes at the outer loop's exit.
        if from_block in (outer or loops[0]).blocks:
            return None  # back edge: loop already running (shouldn't occur)
        self._execute_parallel_region(loops, outer, region, frame)
        # Control resumes after the *last* member; fusion legality
        # guarantees nothing but induction glue lives in between.
        resume = (outer or loops[-1]).canonical.exit
        return frame.function.block(resume)

    def _compiled_region_stop(self, header, frame):
        """Region takeover for compiled sequential stretches.

        No back-edge check: compiled bodies only transfer here from
        outside the region's loop blocks (the lowering refuses anything
        else), and resume at the statically-known canonical exit.
        """
        region = self._regions[header]
        loops, outer = self._region_loops(region, frame)
        self._execute_parallel_region(loops, outer, region, frame)

    def _region_loops(self, region, frame):
        """``(member loops, interchanged outer loop or None)``, canonical."""
        loops = [
            self._canonical_loop(frame.function, recipe.header, "parallel")
            for recipe in region.recipes
        ]
        outer = None
        if region.outer_header:
            outer = self._canonical_loop(
                frame.function, region.outer_header, "interchange outer"
            )
        return loops, outer

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

    def _execute_parallel_region(self, loops, outer_loop, region_par, frame):
        if region_par.speculative and self.backend.name != "simulated":
            raise PlanError(
                f"region {region_par.label} is speculative "
                f"({region_par.speculative}) and was never "
                f"oracle-validated; only the simulated backend may "
                f"execute it"
            )
        members = self._partition(loops, outer_loop, region_par, frame)
        workers = [
            _Worker(
                index,
                [(loop, assignment[index])
                 for loop, _recipe, _values, assignment in members],
                outer_loop,
            )
            for index in range(self.workers)
        ]
        stats = RegionStats(
            header=region_par.label,
            fused=region_par.fused,
            schedule=self.schedule,
            workers=self.workers,
            chunk=(self.chunk if self.chunk is not None
                   else region_par.recipes[0].chunk),
            iterations=sum(len(values) for _l, _r, values, _a in members),
        )
        region = ParallelRegion(
            loops=loops, region=region_par, frame=frame, workers=workers,
            outer=outer_loop,
            critical=self._critical_region_map(
                frame.function, region_par.removed_sync_uids
            ),
            stats=stats,
        )
        self._make_worker_frames(region)

        backend = self._effective_backend(region_par)
        started = time.perf_counter()
        backend.run_region(self, region)
        stats.seconds = time.perf_counter() - started
        if backend is not self.backend:
            stats.backend = (
                f"{self.backend.name}->{stats.backend}(small-region)"
            )
        self._join(workers, members, frame)

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
        if self.adaptive and self.replan_context is not None:
            # Between dispatches, after the join wrote the region's
            # effects back (the deferred-apply invariant: a replan can
            # never observe or double-apply a half-finished region).
            event = self.replan_context.replan(
                self.parallel_regions, self.compile_regions,
                self._adopt_plan,
            )
            if event is not None:
                self.replan_events.append(event)
                stats.replans += 1

    def _partition(self, loops, outer_loop, region_par, frame):
        """``(loop, recipe, values, per-worker assignment)`` per member."""
        outer_values = None
        if outer_loop is not None:
            outer_values = self._loop_values(outer_loop, frame)
        shifts = region_par.member_shifts or ()
        members = []
        for position, (loop, recipe) in enumerate(
            zip(loops, region_par.recipes)
        ):
            values = self._loop_values(loop, frame)
            chunk = self.chunk if self.chunk is not None else recipe.chunk
            scheduler = make_scheduler(self.schedule, chunk)
            # Tiling caps how many workers get non-empty chunks; the
            # rest are padded empty so worker count stays uniform (the
            # backends only dispatch payloads for non-empty workers).
            partitions = self._partition_count(len(values), region_par)
            assignment = scheduler.partition(values, partitions)
            assignment = assignment + [
                [] for _ in range(self.workers - partitions)
            ]
            shift = shifts[position] if position < len(shifts) else 0
            if shift:
                assignment = _shift_assignment(assignment, values, shift)
            if outer_values is not None:
                # Interchanged nest: the *inner* space was partitioned;
                # each worker sweeps its inner slice once per outer
                # value, in outer-major order, so same-inner-value
                # outer-carried flow stays worker-local and in order.
                values = [(t, i) for t in outer_values for i in values]
                assignment = [
                    [(t, i) for t in outer_values for i in chunk_values]
                    for chunk_values in assignment
                ]
            members.append((loop, recipe, values, assignment))
        return members

    def _loop_values(self, loop, frame):
        canonical = loop.canonical
        lower = operand_getter(canonical.lower)(self, frame)
        upper = operand_getter(canonical.upper)(self, frame)
        step = operand_getter(canonical.step)(self, frame)
        if step <= 0:
            raise PlanError("parallel loops require a positive step")
        return list(range(lower, upper, step))

    def _partition_count(self, trip, region_par):
        """Workers that get non-empty chunks (tiling floors chunk size)."""
        if not region_par.tile:
            return self.workers
        needed = -(-trip // region_par.tile) if trip else 1
        return max(1, min(self.workers, needed))

    def _effective_backend(self, region_par):
        """The region's backend: the configured one unless a small-region
        override reroutes a ``processes`` dispatch onto threads, or a
        mid-run replan serialized the region outright.

        The override only ever *reduces* dispatch weight; the simulated
        oracle is left untouched so race detection stays
        level-independent.  A ``"sequential"`` override can only appear
        mid-run (statically-serialized descriptors never reach the
        runtime — ``recipes_from_plan`` drops them): the region keeps
        its trigger header, partitioning, and worker-order merge, but
        runs each worker's chunk on the dispatching thread
        (:class:`SerialBackend`), so the result is bit-identical to the
        threads dispatch it replaces.
        """
        if region_par.backend_override == "sequential" and (
            self.backend.name in ("threads", "processes")
        ):
            return SerialBackend()
        if (
            region_par.backend_override == "threads"
            and self.backend.name == "processes"
        ):
            return get_backend("threads")
        return self.backend

    def _adopt_plan(self, plan):
        """Adopt a replanned plan's cost decisions, preserving triggers.

        Only regions whose (member headers, outer header) identity
        matches a live region adopt the new ``backend_override`` and
        ``tile`` — structural differences (a different fusion grouping,
        a region the new plan dropped) are ignored, because adding or
        removing a takeover trigger mid-run would invalidate the
        compiled sequential stretches' memoized stop sets.  Mutating
        the live :class:`RegionParallelization` in place keeps
        ``self._regions``' keys and the derived recipes untouched.
        """
        by_identity = {
            (descriptor.headers, descriptor.outer_header): descriptor
            for descriptor in plan.regions
        }
        changes = []
        for region in self._regions.values():
            descriptor = by_identity.get(
                (region.headers, region.outer_header)
            )
            if descriptor is None:
                continue
            override = descriptor.backend_override
            tile = descriptor.tile
            if (
                override == region.backend_override
                and tile == region.tile
            ):
                continue
            changes.append({
                "region": region.label,
                "backend_override": [region.backend_override, override],
                "tile": [region.tile, tile],
            })
            region.backend_override = override
            region.tile = tile
        return changes

    # -- worker frames -----------------------------------------------------------

    def _make_worker_frames(self, region):
        """Build every worker's privatized frame from the parent's."""
        recipe = region.region.merged_recipe()
        loops = (
            region.loops if region.outer is None
            else [region.outer] + list(region.loops)
        )
        for worker in region.workers:
            self._make_worker_frame(worker, region.frame, recipe, loops)

    def _make_worker_frame(self, worker, frame, recipe, loops):
        worker_frame = _Frame(frame.function, frame.args)
        worker_frame.registers = dict(frame.registers)
        worker_frame.objects = frame.objects  # shared by default
        worker_frame.global_overlay = dict(frame.global_overlay)

        # Private copies (fresh, firstprivate-seeded, or identity-seeded).
        private_objects = {}
        storage_remap = {}  # id(shared list) -> private list
        privatized_ids = set()

        def privatize(storage, seed_values):
            if id(storage) in privatized_ids:
                return
            privatized_ids.add(id(storage))
            private = list(seed_values)
            if isinstance(storage, GlobalVariable):
                shared = self._effective_global(frame, storage.name)
                worker_frame.global_overlay[storage.name] = private
                worker.private_globals.add(storage.name)
            else:
                shared = frame.objects.get(storage)
                private_objects[storage] = private
                worker.private_allocas.add(storage)
            if shared is not None:
                storage_remap[id(shared)] = private

        for loop in loops:
            induction = loop.canonical.induction
            privatize(induction, [0])
            # A fused member's induction alloca may never have executed
            # in the parent frame (its preheader is skipped by the fused
            # takeover), so materialize its pointer register directly.
            private = private_objects.get(induction)
            if private is not None:
                worker_frame.registers[induction] = (private, 0)
        for storage in recipe.privatized:
            privatize(storage, self._zeros_for(storage))
        for storage in recipe.firstprivate:
            privatize(storage, self._current_values(storage, frame))
        for storage, op in recipe.reductions:
            identity = self._identity_values(storage, op)
            privatize(storage, identity)
        for storage in recipe.lastprivate:
            # Already-private storages (e.g. firstprivate-seeded scratch)
            # keep their seed; plain lastprivate starts zeroed.
            privatize(storage, self._zeros_for(storage))

        if private_objects:
            # Copy-on-write object table: private entries shadow shared.
            shared = frame.objects
            table = dict(shared)
            table.update(private_objects)
            worker_frame.objects = table

        # Pointers already materialized in registers (alloca results, geps
        # computed before the loop) still point at the *shared* storage;
        # re-aim them at the private copies.
        for key, value in worker_frame.registers.items():
            if (
                isinstance(value, tuple)
                and len(value) == 2
                and id(value[0]) in storage_remap
            ):
                worker_frame.registers[key] = (
                    storage_remap[id(value[0])],
                    value[1],
                )
        worker.frame = worker_frame
        return worker_frame

    def _zeros_for(self, storage):
        if isinstance(storage, GlobalVariable):
            return zero_storage(storage.value_type)
        return zero_storage(storage.allocated_type)

    def _current_values(self, storage, frame):
        if isinstance(storage, GlobalVariable):
            return list(self._effective_global(frame, storage.name))
        if storage in frame.objects:
            return list(frame.objects[storage])
        return self._zeros_for(storage)

    def _identity_values(self, storage, op):
        if op not in _IDENTITY:
            raise PlanError(f"no identity for reduction op {op!r}")
        identity = _IDENTITY[op]
        value_type = (
            storage.value_type
            if isinstance(storage, GlobalVariable)
            else storage.allocated_type
        )
        scalar = value_type
        while hasattr(scalar, "element"):
            scalar = scalar.element
        if scalar == FLOAT and op in ("add", "mul"):
            identity = float(identity)
        return [identity] * value_type.slots()

    def _critical_region_map(self, function, removed_sync_uids=frozenset()):
        """block name -> (lock key, region block set) for critical/atomic.

        Annotations whose uid the optimizer's sync-elimination pass put
        in ``removed_sync_uids`` contribute no lock: their guarded
        objects were proven free of cross-worker dependence at this
        region's loop level.
        """
        mapping = {}
        for annotation in function.annotations:
            if annotation.directive.kind not in ("critical", "atomic"):
                continue
            if annotation.uid in removed_sync_uids:
                continue
            name = annotation.directive.clauses.critical_name
            key = f"critical:{name}" if name else f"anon:{annotation.uid}"
            if annotation.directive.kind == "critical" and name is None:
                key = "critical:<anonymous>"
            if annotation.directive.kind == "atomic":
                key = f"atomic:{annotation.uid}"
            blocks = set(annotation.block_names)
            for block_name in blocks:
                mapping[block_name] = (key, blocks)
        return mapping

    # -- join -------------------------------------------------------------------

    def _join(self, workers, members, frame):
        # Reductions merge once per (storage, op) across all members: a
        # shared same-op reduction accumulated both members' updates into
        # one per-worker copy, and commutativity makes the grouping
        # unobservable.
        merged_reductions = []
        seen = set()
        for _loop, recipe, _values, _assignment in members:
            for storage, op in recipe.reductions:
                if (id(storage), op) in seen:
                    continue
                seen.add((id(storage), op))
                merged_reductions.append((storage, op))
        for storage, op in merged_reductions:
            shared = self._shared_storage(storage, frame)
            for worker in workers:
                private = self._private_storage(worker, storage)
                for slot in range(len(shared)):
                    shared[slot] = self._merge(op, shared[slot], private[slot])
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

    @staticmethod
    def _merge(op, a, b):
        if op == "add":
            return a + b
        if op == "mul":
            return a * b
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        raise PlanError(f"unknown reduction op {op!r}")


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
