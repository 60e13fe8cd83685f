"""Pluggable execution backends for planned DOALL loops.

The :class:`~repro.runtime.executor.ParallelInterpreter` runs a program
sequentially until it reaches a planned loop, builds one privatized
frame per worker, and then hands the :class:`ParallelRegion` to a
backend's ``run_region`` — all three have that one shape, and each
owns its whole execution strategy:

* ``simulated`` — the seeded virtual-thread interleaver
  (:class:`_Stepper`).  One Python interpreter steps every worker
  instruction-by-instruction in a seed-chosen order, with cooperative
  locks for critical/atomic regions, so data races introduced by a
  *wrong* plan show up as real nondeterminism across seeds.  This is
  the race-detection oracle of the conformance suite, not a
  performance backend.
* ``threads`` — one OS thread per worker, from one persistent *team*
  (``_TEAM``: a single :class:`concurrent.futures.ThreadPoolExecutor`
  for the process, its threads spawned when a region needs more than
  are parked and retired before the process pool forks).  Workers share
  the interpreter's storage exactly like the simulated machine; critical
  and atomic regions take real :class:`threading.Lock` locks.  Every job
  of a region has ended before its results — or its lowest-index
  worker's error — leave the backend.
* ``processes`` — one OS process per worker (:mod:`multiprocessing`).
  Each region is encoded by the :mod:`repro.runtime.payload` codec:
  the shared state (global storage plus every shared storage list) is
  pickled once per region and attached to every payload of it, next to
  each worker's small frame delta; a pool worker decodes it, runs its
  chunk against it and keeps nothing of it afterwards.  The module
  itself travels as persistent ids against a per-pool-worker
  decoded-module cache, its bytes broadcast at most once per pool (a
  worker that joined later or evicted it reports a module miss and is
  retried with them attached).  The child copies the region's
  storage table, runs its iterations through the plain compiled body
  (no write log, no store bookkeeping) and sends back its private
  reduction/lastprivate values plus the table slots that now differ
  from the copy.  The parent collects every result, then writes the
  diffs into its own table and merges reductions in worker order, so
  results are deterministic.  Loops
  whose bodies contain ``critical``/``atomic`` regions need shared
  memory and fall back to the ``threads`` backend.  Dispatch is
  supervised — infrastructure failures retry the region — and this is
  the only backend with a degradation ladder (processes -> threads ->
  serial, with snapshot/restore around each failed lower rung).

All backends consume the same :class:`ChunkScheduler` partition, so a
given ``(schedule, chunk, workers)`` triple executes the same
iteration-to-worker assignment everywhere.
"""

import atexit
import concurrent.futures
import dataclasses
import multiprocessing
import os
import random
import threading
import time

import repro.runtime.payload as payload_codec
from repro.codegen import cache as codegen_cache
from repro.codegen import runtime as codegen_runtime
from repro.emulator.interp import Interpreter
from repro.ir.basicblock import BasicBlock
from repro.runtime import faults, knobs
from repro.util.errors import EmulationError, PlanError, RegionDispatchError
from repro.util.regionstats import RegionStats

#: Seconds a worker may wait on one critical-section lock before the
#: threads backend declares the region deadlocked.
_LOCK_TIMEOUT = 30.0

#: Minimum seconds the parent waits for a region's worker processes; the
#: actual allowance scales with the interpreter's step budget (see
#: :func:`_region_allowance`) so long-but-progressing runs are not
#: killed while stuck workers still are.
_PROCESS_TIMEOUT = 120.0

#: Conservative floor on child interpreter throughput (steps/second)
#: used to convert a step budget into a wall-clock allowance.
_MIN_STEPS_PER_SECOND = 50_000


def _region_allowance(max_steps):
    return max(_PROCESS_TIMEOUT, max_steps / _MIN_STEPS_PER_SECOND)


@dataclasses.dataclass
class ParallelRegion:
    """One dispatched region's execution context, as handed to a backend.

    Since the ``repro.opt`` pipeline a region may hold several *fused*
    member loops; every worker's ``segments`` list its chunk of each
    member in order.
    """

    loops: list  # member NaturalLoops (canonical form guaranteed)
    region: object  # RegionParallelization (recipes + opt markers)
    frame: object  # the enclosing (sequential) _Frame
    workers: list  # _Worker instances, one per configured worker
    outer: object  # interchanged nest's outer loop, or None
    critical: dict  # block name -> (lock key, block set), elided syncs out
    stats: RegionStats  # the counter block backends increment


class ExecutionBackend:
    """Executes every worker of one parallel region to completion.

    A backend must leave each worker's private storage (reductions,
    lastprivate copies) readable through ``worker.frame`` in the parent
    interpreter, apply the workers' shared-memory effects, append the
    workers' ``print`` records to ``interp.output`` deterministically
    (worker order unless the backend *is* the interleaving oracle), and
    fill ``worker.steps``/``worker.seconds``.  The interpreter performs
    the reduction/lastprivate join afterwards.
    """

    name = None

    def run_region(self, interp, region):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


# -- worker-local sequential execution ----------------------------------------


class _WorkerInterpreter(Interpreter):
    """Interpreter shell for one worker: own output/step counters.

    Shares (threads) or owns a copy of (processes) the global storage;
    never rebuilds it from initializers.
    """

    def __init__(self, module, global_storage, max_steps):
        # global_storage is the run's live storage: shared with the
        # parent for threads, this worker's deserialized copy for
        # processes.
        super().__init__(module, max_steps, global_storage=global_storage)

    def run_chunk(self, loop, frame, iterations, locks, outer=None):
        """Execute ``iterations`` of ``loop``'s body on ``frame``.

        With ``outer`` (an interchanged nest's outer loop), each value
        is an ``(outer, inner)`` pair and both induction storages are
        set before the body runs; the nest's glue blocks never execute
        here — interchange legality proved them pure iv bookkeeping.
        """
        canonical = loop.canonical
        function = frame.function
        header = loop.header
        body = function.block(canonical.body)
        induction_storage = frame.objects[canonical.induction]
        outer_storage = (
            frame.objects[outer.canonical.induction]
            if outer is not None else None
        )
        held = set()
        decoded = self._decoded
        max_steps = self.max_steps
        try:
            for value in iterations:
                if outer_storage is not None:
                    outer_storage[0] = value[0]
                    value = value[1]
                induction_storage[0] = value
                block = body
                while True:
                    next_block = None
                    for op in decoded.get(block) or self._decode(block):
                        self.steps += 1
                        if self.steps > max_steps:
                            raise EmulationError(
                                "parallel worker exceeded max_steps"
                            )
                        next_block = op(self, frame)
                    if next_block is header:
                        locks.release_all(held)
                        break
                    if type(next_block) is not BasicBlock:
                        raise _left_body(block, next_block)
                    locks.transition(held, block, next_block)
                    block = next_block
        finally:
            # A worker dying with a critical-section lock held would
            # stall its siblings until the lock timeout and mask the
            # real error with a bogus deadlock report.
            locks.release_all(held)


def _left_body(block, target):
    """The error for a worker's block that ends in no jump or branch."""
    if target is None:
        return EmulationError(f"worker fell off block {block.name}")
    return EmulationError("return inside a parallelized loop body")


class _NullLocks:
    """Lock provider for isolated workers (processes): nothing to lock."""

    def transition(self, held, from_block, to_block):
        pass

    def release_all(self, held):
        pass


class _ThreadLocks:
    """Real locks for critical/atomic regions, shared by worker threads."""

    def __init__(self, regions):
        self._regions = regions  # block name -> (lock key, block set)
        self._locks = {key: threading.Lock() for key, _ in regions.values()}

    def transition(self, held, from_block, to_block):
        from_region = self._regions.get(from_block.name)
        to_region = self._regions.get(to_block.name)
        if from_region and (
            to_region is None or to_region[0] != from_region[0]
        ):
            if from_region[0] in held:
                held.discard(from_region[0])
                self._locks[from_region[0]].release()
        if to_region and to_region[0] not in held:
            if not self._locks[to_region[0]].acquire(timeout=_LOCK_TIMEOUT):
                raise EmulationError(
                    f"deadlock: lock {to_region[0]!r} not released within "
                    f"{_LOCK_TIMEOUT}s"
                )
            held.add(to_region[0])

    def release_all(self, held):
        for key in list(held):
            held.discard(key)
            self._locks[key].release()


def _count_codegen(stats, before, after):
    """Charge a ``codegen_cache.stats()`` delta to the region's counters."""
    stats.codegen_compiles += after["compiles"] - before["compiles"]
    stats.codegen_source_hits += after["source_hits"] - before["source_hits"]
    stats.codegen_fallbacks += after["fallbacks"] - before["fallbacks"]


# -- the three backends ---------------------------------------------------------


class SimulatedBackend(ExecutionBackend):
    """Seeded instruction-level interleaving (the race-detection oracle)."""

    name = "simulated"

    def run_region(self, interp, region):
        region.stats.backend = self.name
        _Stepper(interp, region).run()


class _Stepper:
    """One region's seeded interleaving: the oracle's operational semantics.

    Steps every worker one IR instruction at a time on the dispatching
    interpreter, choosing the next worker with a ``Random(interp.seed)``
    draw among those not blocked on a critical/atomic lock.  The locks
    are cooperative (a key -> holder-index table), so a plan whose
    locks were wrongly elided interleaves for real and a lock cycle is
    reported as a deadlock instead of hanging.

    A worker is a generator (:meth:`_steps`): one instruction per
    resume, yielding whether that step changed who may run — a worker
    finishing, ``locks`` or ``waiting_for`` moving — and only then does
    :meth:`run` rebuild the candidate list it draws from.
    """

    def __init__(self, interp, region):
        self.interp = interp
        self.workers = region.workers
        self.critical = region.critical
        self.locks = {}  # lock key -> worker index or None

    def run(self):
        interp = self.interp
        max_steps = interp.max_steps
        # ``rng.choice(candidates)``'s draws, bit for bit (its
        # ``getrandbits`` loop, run even when one worker can run).
        getrandbits = random.Random(interp.seed).getrandbits
        runners = [
            (worker, self._steps(worker).__next__)
            for worker in self.workers if not worker.done
        ]
        for _worker, resume in runners:
            resume()  # up to its first instruction
        while True:
            candidates = [
                resume for worker, resume in runners
                if not worker.done and self._can_run(worker)
            ]
            n = len(candidates)
            if not n:
                if any(not worker.done for worker, _resume in runners):
                    raise EmulationError(
                        "parallel deadlock: all remaining workers blocked"
                    )
                return
            k = n.bit_length()
            changed = False
            while not changed:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                interp.steps += 1
                if interp.steps > max_steps:
                    raise EmulationError(
                        "parallel execution exceeded max_steps"
                    )
                try:
                    changed = candidates[r]()
                except StopIteration:
                    changed = True

    def _can_run(self, worker):
        lock = worker.waiting_for  # never one the worker itself holds
        return lock is None or self.locks.get(lock) is None

    def _steps(self, worker):
        """``worker``'s instruction stream, one instruction per resume.

        Drains the member segments in order (no barrier: fusion legality
        keeps cross-member flow per-worker).  All up to the next
        ``yield`` is the step just drawn: a terminator's step also hands
        locks over and starts the next iteration, and a queued worker —
        resumed only once its lock is free — takes it with its next one.
        """
        interp = self.interp
        critical = self.critical
        frame = worker.frame
        objects = frame.objects
        decoded = interp._decoded
        changed = False
        steps = 0
        for loop, iterations in worker.segments:
            header = loop.header
            body = header.parent.block(loop.canonical.body)
            induction = objects.setdefault(loop.canonical.induction, [0])
            for value in iterations:
                if worker.nest is not None and isinstance(value, tuple):
                    # Interchanged nest: an (outer, inner) pair; both
                    # inductions were privatized with the frame.
                    outer_value, value = value
                    objects[worker.nest.canonical.induction][0] = (
                        outer_value
                    )
                induction[0] = value
                block = body
                while block is not header:
                    ops = decoded.get(block) or interp._decode(block)
                    yield changed
                    changed = worker.waiting_for is not None
                    if changed:
                        self.locks[worker.waiting_for] = worker.index
                        worker.held.add(worker.waiting_for)
                        worker.waiting_for = None
                    next_block = None
                    for op in ops:
                        steps += 1
                        next_block = op(interp, frame)
                        if next_block is None:
                            yield changed
                            changed = False
                    if next_block is header:
                        # Iteration finished (came around from the latch).
                        if worker.held:
                            changed |= self._release_all(worker)
                    elif type(next_block) is not BasicBlock:
                        raise _left_body(block, next_block)
                    elif critical:
                        changed |= self._update_locks(
                            worker, block, next_block
                        )
                    block = next_block
        worker.done = True
        self._release_all(worker)
        worker.steps = steps

    def _update_locks(self, worker, from_block, to_block):
        """Lock hand-over of one block transition; True if any moved."""
        from_region = self.critical.get(from_block.name)
        to_region = self.critical.get(to_block.name)
        changed = False
        if from_region and (
            to_region is None or to_region[0] != from_region[0]
        ):
            changed = self._release(worker, from_region[0])
        if to_region and to_region[0] not in worker.held:
            changed = True
            if self.locks.get(to_region[0]) is None:
                self.locks[to_region[0]] = worker.index
                worker.held.add(to_region[0])
            else:
                worker.waiting_for = to_region[0]
        return changed

    def _release(self, worker, lock):
        if lock not in worker.held:
            return False
        worker.held.discard(lock)
        if self.locks.get(lock) == worker.index:
            self.locks[lock] = None
        return True

    def _release_all(self, worker):
        return any([self._release(worker, lock) for lock in list(worker.held)])


#: The ``threads`` backend's worker team: one executor for every region
#: of every run in this process, its threads spawned on demand — as many
#: as the widest region seen — and parked between regions.  (One built
#: and joined per region cost 96 us against 23 us for two jobs on a live
#: one, before its fresh threads fought the dispatcher for the GIL.)
_TEAM = None
_TEAM_LOCK = threading.Lock()


def _team_submit(job, active):
    """``job(worker)`` on the team, every worker at once; the futures."""
    global _TEAM
    with _TEAM_LOCK:  # a retirement waits out a region's whole submit
        if _TEAM is None:
            _TEAM = concurrent.futures.ThreadPoolExecutor(
                max_workers=len(active), thread_name_prefix="repro-worker"
            )
        # One thread per worker: a wider region widens the live team (the
        # bound is read at every submit) rather than queue behind it or
        # replace it under another dispatching thread's jobs.
        _TEAM._max_workers = max(_TEAM._max_workers, len(active))
        return [_TEAM.submit(job, worker) for worker in active]


def _retire_team():
    """End the team's threads; the next ``threads`` region starts anew."""
    global _TEAM
    with _TEAM_LOCK:
        team, _TEAM = _TEAM, None
    if team is not None:
        team.shutdown(wait=True)  # parked threads exit in microseconds


def _forget_team():
    """In a forked child: the executor came along, its threads did not."""
    global _TEAM, _TEAM_LOCK
    _TEAM, _TEAM_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_team)


class ThreadsBackend(ExecutionBackend):
    """One OS thread per worker; shared storage; real locks for criticals."""

    name = "threads"

    def run_region(self, interp, region):
        stats = region.stats
        stats.backend = self.name
        locks = _ThreadLocks(region.critical)
        active = [w for w in region.workers if w.size]
        if not active:
            return
        outer_loop = region.outer

        compile_on = interp.compile_regions
        verify = compile_on and bool(knobs.VERIFY_COMPILED)
        entries = {}
        if compile_on:
            # Compile once on the dispatching thread; jobs only look up.
            # Loops holding critical/atomic blocks stay interpreted — the
            # compiled body performs no lock transitions.
            before = codegen_cache.stats()
            for loop in region.loops:
                if any(
                    block.name in region.critical
                    for block in loop.blocks
                ):
                    entries[loop] = None
                else:
                    entries[loop] = codegen_cache.compiled_chunk(
                        interp.module, loop, outer=outer_loop,
                    )
            _count_codegen(stats, before, codegen_cache.stats())

        def job(worker):
            start = time.perf_counter()
            shim = _WorkerInterpreter(
                interp.module, interp._global_storage, interp.max_steps
            )
            shim._decoded = interp._decoded  # one decode per block per run
            reachable = payload_codec._walk_storages(
                worker.frame, interp._global_storage
            ) if verify else None  # what the armed oracle copies
            compiled = interpreted = 0
            # Member segments run back-to-back with no barrier: fusion
            # legality keeps every cross-member dependence within one
            # worker's own chunks.
            for loop, iterations in worker.segments:
                if iterations:
                    mode = codegen_runtime.execute_chunk(
                        entries.get(loop), shim, loop, worker.frame,
                        iterations, locks, verify=reachable,
                        outer=outer_loop,
                    )
                    if mode == "compiled":
                        compiled += 1
                    else:
                        interpreted += 1
            worker.seconds = time.perf_counter() - start
            return shim, compiled, interpreted

        # Worker-order collection keeps output/step totals deterministic.
        # Armed, the workers run in turn: nothing else may write the
        # storages between a chunk's two runs (codegen.runtime._differential).
        run_jobs = SerialBackend._run_jobs if verify else type(self)._run_jobs
        for worker, (shim, compiled, interpreted) in (
            run_jobs(self, active, job)
        ):
            worker.steps = shim.steps
            interp.steps += shim.steps
            interp.output.extend(shim.output)
            stats.compiled_chunks += compiled
            stats.interpreted_chunks += interpreted

    def _run_jobs(self, active, job):
        """Run ``job`` per worker concurrently; results in worker order."""
        futures = _team_submit(job, active)
        try:
            return [(worker, future.result())
                    for worker, future in zip(active, futures)]
        except BaseException:
            # The lowest-index worker's error, once every job has ended:
            # the ladder's frame reset must not race a straggler.
            concurrent.futures.wait(futures)
            raise


class SerialBackend(ThreadsBackend):
    """Threads-backend semantics, one worker at a time.

    The graceful-degradation ladder's last rung: identical partitioning,
    privatization, and worker-order merges, but each worker's chunk runs
    to completion on the dispatching thread before the next starts — no
    concurrency left to fail.  Not registered in :data:`BACKENDS`; only
    the ladder (and tests) reach it.
    """

    name = "serial"

    def _run_jobs(self, active, job):
        return [(worker, job(worker)) for worker in active]


def _fork_preferred_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


#: Process-pool singleton: forking a fresh child per worker per region
#: costs ~10ms each, which dominates small kernels.  A lazily-created
#: pool amortizes the fork across every region of every run; payloads
#: carry all state, so pool workers need no inherited context.
_POOL = None  # (executor, module keys already broadcast to its workers)
_POOL_LOCK = threading.Lock()

#: Hard ceiling on pool width regardless of the requested size.
_POOL_MAX_WORKERS = 16


def _desired_pool_size(requested):
    cpus = os.cpu_count() or 2
    if requested is None:
        return max(2, min(8, cpus, _POOL_MAX_WORKERS))
    return max(2, min(int(requested), cpus, _POOL_MAX_WORKERS))


def _chunk_pool(requested=None):
    """The shared chunk pool, at least ``requested`` workers wide:
    ``(executor, module keys already broadcast to it)``.

    ``requested`` normally comes from the planner's machine-model core
    count (clamped to the actual CPU count); asking for more workers
    than the live pool has drains it and starts a fresh one.
    """
    global _POOL
    size = _desired_pool_size(requested)
    # The caller is about to submit, and a submit may fork (a fresh
    # pool's first does; any may where CPython spawns workers on demand):
    # never from a parent more threaded than before the team existed.
    _retire_team()
    with _POOL_LOCK:
        # A wider-than-requested pool is simply reused: callers with
        # different machine models (or the None default) alternating in
        # one process must not thrash teardown/re-fork cycles.
        if _POOL is not None and _POOL[0]._max_workers < size:
            _POOL[0].shutdown(wait=False, cancel_futures=True)
            _POOL = None
        if _POOL is None:
            # Never recycled: a worker keeps nothing between payloads but
            # at most MODULE_CACHE_CAP decoded modules.  A rebuild every
            # 128 regions — every 36 ops of ``run-procs-warm``'s traffic,
            # 1080 ops on one pinned core — cost mean 8.17 against 5.68
            # ms/op, p90 BT 36.4 / 6.7 and dense48 24.8 / 15.5 ms, and
            # bounded nothing: a never-recycled child is 28.1 MB RSS from
            # op 0 to op 1080 (27.8 MB after 2700 regions of 32 rotating
            # modules), each recycled generation forked from a grown
            # parent, the 31st at 34.1 MB.  A worker that starts keeping
            # state between payloads is what would justify recycling again.
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=size, mp_context=_fork_preferred_context(),
            )
            _POOL = (executor, set())
        return _POOL


def _reset_chunk_pool(kill=False):
    """Discard the pool; the next one's broadcast set starts empty.

    A dispatch that took the old pair first marks its module shipped in
    the dead pool's set only.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is None:
        return
    executor = pool[0]
    if kill:
        # A worker is stuck mid-chunk: shutdown() alone would wait on it
        # (and leave it occupying a slot); terminate the children so the
        # next pool starts clean.
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
    executor.shutdown(wait=False, cancel_futures=True)


# Tear the pool down before interpreter shutdown dismantles the modules
# its weakref callbacks still reference.
atexit.register(_reset_chunk_pool)


def _pool_chunk_entry(wire, fault=None):
    """Pool-worker entry point: run one worker's chunk, return its report.

    ``wire`` is a :meth:`~repro.runtime.payload.WorkerPayload.wire`
    tuple.  The chunk runs through the loop's compiled entry (or the
    interpreter) against the decoded storage table, and the report's
    ``diffs`` are :func:`~repro.runtime.payload.diff_table` of that
    table against a copy taken before the run; a payload that arms the
    ``VERIFY_COMPILED`` oracle runs the same entry under it.  Never
    raises —
    errors come back as ``{"error": ...}`` so one
    bad chunk cannot poison the shared pool; a worker that does not hold
    the module the payload names reports ``{"module_miss": key}`` so the
    parent can retry with its bytes attached.  Decode failures are
    tagged ``"phase": "decode"`` — they indict the wire/cache machinery,
    not the program, so the supervisor retries them; execution failures
    stay untagged and fatal.

    ``fault`` is an injected-fault directive from
    :mod:`repro.runtime.faults` (chaos testing only): executed before
    anything else, exactly as a real mid-flight worker death or stall
    would land.
    """
    if fault is not None:
        faults.perform(fault)
    try:
        payload = payload_codec.decode_payload(wire)
        if payload is None:
            return {"module_miss": wire[0]}  # the module key
    except BaseException as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "phase": "decode"}
    try:
        frame = payload["frame"]
        segments = payload["segments"]  # [(loop, iterations), ...]
        nest = payload.get("nest")  # interchanged outer loop (or None)
        private_globals = payload["private_globals"]
        private_alloca_uids = payload["private_alloca_uids"]

        shim = _WorkerInterpreter(
            payload["module"], payload["global_storage"],
            payload["max_steps"],
        )
        # Shared writes go home as the difference between the region's
        # storage table and this copy of it; private copies are returned
        # whole instead.  Allocas first executed inside the chunk are in
        # no table: scratch, never merged.
        table = payload["table"]
        before = [list(storage) for storage in table]
        compile_on = payload.get("compile_regions")
        reachable = payload_codec._walk_storages(
            frame, payload["global_storage"]
        ) if compile_on and payload.get("verify_compiled") else None
        # This chunk's share of the region's counters, shipped home as
        # the same record the parent accumulates into.
        stats = RegionStats()
        codegen_before = codegen_cache.stats()
        start = time.perf_counter()
        for loop, iterations in segments:
            if iterations:
                entry = None
                if compile_on:
                    # Keyed by the child's decoded module object
                    # (cache.py explains why the content hash is not
                    # enough).
                    entry = codegen_cache.compiled_chunk(
                        payload["module"], loop,
                        module_key=payload.get("module_key"),
                        outer=nest,
                    )
                mode = codegen_runtime.execute_chunk(
                    entry, shim, loop, frame, iterations,
                    _NullLocks(), verify=reachable, outer=nest,
                )
                if mode == "compiled":
                    stats.compiled_chunks += 1
                else:
                    stats.interpreted_chunks += 1
        seconds = time.perf_counter() - start

        diffs = payload_codec.diff_table(table, before)
        stats.dirty_slots = len(diffs)
        _count_codegen(stats, codegen_before, codegen_cache.stats())
        return {
            "steps": shim.steps,
            "output": shim.output,
            "seconds": seconds,
            "stats": stats,
            "diffs": diffs,
            "global_privates": {
                name: list(frame.global_overlay[name])
                for name in private_globals
            },
            "alloca_privates": {
                inst.uid: list(storage)
                for inst, storage in frame.objects.items()
                if inst.uid in private_alloca_uids
            },
        }
    except BaseException as exc:  # report, never poison the pool
        return {"error": f"{type(exc).__name__}: {exc}"}


class _InfraFailure(Exception):
    """Internal: dispatch infrastructure failed; the region is retryable.

    Raised by :meth:`ProcessesBackend._dispatch_once` for worker death,
    hangs, undeliverable results, and payload-decode failures — all
    cases where the deferred-apply invariant guarantees the parent state
    is still the pre-dispatch image.  Program errors raise plain
    :class:`EmulationError` instead and are never retried.
    """


class ProcessesBackend(ExecutionBackend):
    """One OS process per worker; serialized frames; diff-merged state.

    Dispatch is *supervised*: infrastructure failures — worker death,
    hangs, poisoned payloads — kill and respawn the pool and re-encode
    and re-dispatch the whole region, up to a per-region retry budget
    with bounded exponential backoff.  The deferred-apply
    collection makes this exactly-once: no shared-memory effect lands
    until every worker of the region reported, so a failed attempt
    leaves the parent state byte-identical to the pre-dispatch image.

    A region whose retry budget is exhausted
    (:class:`RegionDispatchError`) descends the *degradation ladder*:
    the threads backend, then serial
    interpretation — each rung re-running the *whole* region against
    the intact pre-dispatch state (lower rungs mutate parent storage
    live, so they snapshot/restore around a failed attempt).  The
    Session quarantine remembers the rung that worked, keyed by program
    content hash + region label, so warm re-runs skip the doomed path.
    Plain :class:`EmulationError` from the processes rung is a
    *program* error and propagates untouched.
    """

    name = "processes"

    def run_region(self, interp, region):
        stats = region.stats
        # Critical/atomic regions need shared memory: delegate the whole
        # region to the threads backend (real locks) and record that.
        # (Regions whose locks the sync-elimination pass removed no
        # longer appear in the critical map, so they stay here.)
        if any(
            block.name in region.critical
            for loop in region.loops
            for block in loop.blocks
        ):
            ThreadsBackend().run_region(interp, region)
            stats.backend = f"{self.name}->threads(critical)"
            return
        stats.backend = self.name
        quarantine = interp.quarantine
        key = (payload_codec.module_codec(interp.module).key, stats.header)
        rung = quarantine.rung_for(key) if quarantine is not None else None
        suffix = "quarantine" if rung is not None else "failover"
        chain = []
        if rung is None:
            try:
                self._run_supervised(interp, region)
                return
            except RegionDispatchError as exc:
                chain.append(str(exc))
                stats.failovers += 1
        for backend in (ThreadsBackend(), SerialBackend()):
            if rung == "serial" and backend.name != "serial":
                continue
            snapshot = self._snapshot(interp, region)
            try:
                backend.run_region(interp, region)
            except EmulationError as exc:
                chain.append(str(exc))
                self._restore(interp, region, snapshot)
                if backend.name == "serial":
                    raise EmulationError(
                        f"region {stats.header} failed on every rung of "
                        "the degradation ladder: " + " | ".join(chain)
                    ) from exc
                stats.failovers += 1
                continue
            stats.backend = f"{self.name}->{backend.name}({suffix})"
            if quarantine is not None:
                quarantine.demote(key, backend.name)
            return

    def _snapshot(self, interp, region):
        """Capture everything a lower ladder rung may tear on failure.

        The threads/serial rungs execute through shims that share the
        parent's storage, so a mid-region failure leaves partial writes
        behind; this captures every shared storage list (the same walk
        the payload codec uses to enumerate them) plus the region's
        chunk counters.  ``interp.output``/``steps`` need no capture:
        both backends collect results only after every worker finished.
        """
        storages = payload_codec._walk_storages(
            region.frame, interp._global_storage
        )
        return (
            [(storage, list(storage)) for storage in storages],
            region.stats.compiled_chunks,
            region.stats.interpreted_chunks,
        )

    def _restore(self, interp, region, snapshot):
        """Roll shared state back to ``snapshot`` and rebuild the workers."""
        storages, compiled, interpreted = snapshot
        for storage, values in storages:
            storage[:] = values
        region.stats.compiled_chunks = compiled
        region.stats.interpreted_chunks = interpreted
        interp.make_worker_frames(region)

    def _run_supervised(self, interp, region):
        """The processes rung: dispatch with retries, then apply."""
        stats = region.stats
        active = [w for w in region.workers if w.size]
        if not active:
            return
        budget = interp.retry_budget
        # A negative base would reach time.sleep as a ValueError and
        # turn a recoverable crash into a failed run.
        backoff = max(0.0, float(knobs.REPRO_RETRY_BACKOFF.value))
        plan = faults.active_plan()
        attempt = 0
        while True:
            try:
                table, completed = self._dispatch_once(
                    interp, region, active, plan
                )
                break
            except _InfraFailure as exc:
                attempt += 1
                if attempt > budget:
                    raise RegionDispatchError(
                        f"region dispatch failed after {attempt} "
                        f"attempts ({budget} retries): {exc}"
                    ) from exc
                stats.retries += 1
                started = time.perf_counter()
                # Kill the pool (a stuck or half-dead worker must not
                # survive into the retry); the next one's broadcast set
                # is empty, so the re-encode ships the module again.
                _reset_chunk_pool(kill=True)
                time.sleep(backoff * (2 ** (attempt - 1)))
                stats.recovery_ms += (
                    time.perf_counter() - started
                ) * 1000.0
        for worker, result in completed:  # worker order: deterministic
            self._apply(interp, region, worker, result, table)

    def _dispatch_once(self, interp, region, active, plan):
        """Encode, submit, and collect one dispatch attempt of a region.

        Returns the storage table the payloads index and the
        ``(worker, result)`` list in worker order, without applying
        anything.  Raises :class:`_InfraFailure` for retryable
        infrastructure failures, :class:`EmulationError` for program
        errors.  ``plan`` is the active fault-injection plan (or None).
        """
        pool, shipped = _chunk_pool(interp.pool_size)
        stats = region.stats
        encoded = payload_codec.encode_region(
            module=interp.module,
            frame=region.frame,
            loops=region.loops,
            global_storage=interp._global_storage,
            max_steps=interp.max_steps,
            workers=active,
            shipped=shipped,
            compile_regions=interp.compile_regions,
            nest=region.outer,
        )
        ordinal = faults.next_region_ordinal() if plan else None
        submitted = []
        dropped = set()  # worker list indices whose results are discarded
        try:
            for index, (worker, worker_payload) in enumerate(
                zip(active, encoded.workers)
            ):
                directive = None
                wire = worker_payload.wire()
                if plan:
                    scenario = plan.draw(ordinal, index)
                    if scenario is not None:
                        stats.faults_injected += 1
                        if scenario.kind in ("crash", "hang"):
                            directive = scenario.directive()
                        elif scenario.kind == "corrupt_wire":
                            wire = worker_payload.corrupted(
                                scenario.seed
                            ).wire()
                        elif scenario.kind == "drop_result":
                            dropped.add(index)
                submitted.append((
                    worker,
                    pool.submit(_pool_chunk_entry, wire, directive),
                    worker_payload,
                ))
        except RuntimeError as exc:
            # The pool refuses new work: a worker died, possibly during
            # an earlier region (``BrokenProcessPool``), or another
            # dispatching thread reset the pool after this one took it
            # ("cannot schedule new futures after shutdown").  Nothing
            # from this attempt was collected, so the region is cleanly
            # retryable.
            for _worker, pending, _payload in submitted:
                pending.cancel()
            _reset_chunk_pool()
            raise _InfraFailure(
                f"chunk pool refused a submit: {exc}"
            ) from None
        stats.payloads += len(submitted)
        stats.payload_bytes += encoded.wire_bytes

        # Collect every result before applying any of them: a retried
        # dispatch re-encodes the *pre-dispatch* state, so no worker's
        # shared-memory effects may land until the whole region is in.
        failure = None  # program error: fatal, never retried
        infra = None  # infrastructure failure message: retryable
        completed = []  # (worker, result) in worker order
        retries = []  # miss-retry futures, cancellable alongside submitted
        configured = float(knobs.REPRO_REGION_TIMEOUT.value or 0.0)
        allowance = (
            configured if configured > 0
            else _region_allowance(interp.max_steps)
        )
        deadline = time.monotonic() + allowance  # for the whole region
        for index, (worker, future, worker_payload) in enumerate(submitted):
            try:
                result = future.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if (
                    failure is None and infra is None
                    and result.get("module_miss")
                ):
                    # This pool worker joined after the pool's module
                    # broadcast or has evicted it: retry its payload
                    # (only) with the module bytes attached.
                    refreshed = worker_payload.with_module(encoded.codec)
                    stats.payloads += 1
                    stats.payload_bytes += refreshed.wire_bytes
                    stats.retry_payload_bytes += refreshed.wire_bytes
                    retry = pool.submit(_pool_chunk_entry, refreshed.wire())
                    # Track the retry so the timeout drain below can
                    # cancel it too — an untracked stuck retry would
                    # occupy a slot of the shared pool forever.
                    retries.append(retry)
                    result = retry.result(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            except concurrent.futures.process.BrokenProcessPool as exc:
                _reset_chunk_pool()
                infra = infra or (
                    f"worker process {worker.index} died: {exc}"
                )
                continue
            except concurrent.futures.TimeoutError:
                # The child is stuck mid-chunk; abandoning it would leave
                # it occupying a slot of the shared pool forever.
                for _w, pending, _p in submitted:
                    pending.cancel()
                for pending in retries:
                    pending.cancel()
                _reset_chunk_pool(kill=True)
                infra = infra or (
                    f"worker process {worker.index} timed out after "
                    f"{allowance:.0f}s"
                )
                continue
            except concurrent.futures.CancelledError:
                # Cancelled while draining after a timeout above; the
                # recorded failure is the one to surface.
                infra = infra or (
                    f"worker process {worker.index} was cancelled"
                )
                continue
            if failure is not None or infra is not None:
                continue
            if result.get("module_miss"):
                infra = (
                    f"worker process {worker.index} still missing the "
                    "module after a retry with it attached"
                )
                continue
            if "error" in result:
                if result.get("phase") == "decode":
                    # The wire or the module caches are at fault, not
                    # the program: a clean re-encode may succeed.
                    infra = (
                        f"worker process {worker.index} failed to decode "
                        f"its payload: {result['error']}"
                    )
                else:
                    failure = EmulationError(
                        f"worker process {worker.index} failed: "
                        f"{result['error']}"
                    )
                continue
            if index in dropped:
                infra = (
                    f"worker process {worker.index} result dropped "
                    "(injected fault)"
                )
                continue
            completed.append((worker, result))
        if failure is not None:
            raise failure
        if infra is not None:
            raise _InfraFailure(infra)
        return encoded.table, completed

    def _apply(self, interp, region, worker, result, table):
        worker.steps = result["steps"]
        worker.seconds = result["seconds"]
        interp.steps += result["steps"]
        interp.output.extend(result["output"])
        stats, chunk = region.stats, result["stats"]
        stats.dirty_slots += chunk.dirty_slots
        stats.compiled_chunks += chunk.compiled_chunks
        stats.interpreted_chunks += chunk.interpreted_chunks
        stats.codegen_compiles += chunk.codegen_compiles
        stats.codegen_source_hits += chunk.codegen_source_hits
        stats.codegen_fallbacks += chunk.codegen_fallbacks
        # Shared-memory effects, applied in worker order (deterministic;
        # a correct DOALL's shared writes are disjoint across workers).
        for index, slot, value in result["diffs"]:
            table[index][slot] = value
        # Private copies: write the child's final values back into the
        # parent-side worker frame so the generic join sees them.
        for name, values in result["global_privates"].items():
            worker.frame.global_overlay[name][:] = values
        privates = {
            inst.uid: worker.frame.objects[inst]
            for inst in worker.private_allocas
        }
        for uid, values in result["alloca_privates"].items():
            if uid not in privates:
                raise EmulationError(
                    f"region {stats.header}: worker process "
                    f"{worker.index} returned private alloca %{uid}, "
                    "which its frame was not privatized with"
                )
            privates[uid][:] = values


BACKENDS = {
    backend.name: backend
    for backend in (SimulatedBackend, ThreadsBackend, ProcessesBackend)
}


def backend_names():
    return sorted(BACKENDS)


def get_backend(backend):
    """An :class:`ExecutionBackend` for a name (or pass an instance through)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend not in BACKENDS:
        raise PlanError(
            f"unknown execution backend {backend!r}; "
            f"choose from {backend_names()}"
        )
    return BACKENDS[backend]()
