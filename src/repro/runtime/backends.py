"""Pluggable execution backends for planned DOALL loops.

The :class:`~repro.runtime.executor.ParallelInterpreter` runs a program
sequentially until it reaches a planned loop, builds one privatized
frame per worker, and then calls a backend's ``run_region`` with the
region's :class:`~repro.runtime.executor.PreparedRegion`, the enclosing
frame, the workers and the region's stats — all three have that one
shape, and each owns its whole execution strategy:

* ``simulated`` — the seeded virtual-thread interleaver
  (:class:`_Stepper`).  One Python interpreter steps every worker
  instruction-by-instruction in a seed-chosen order, with cooperative
  locks for critical/atomic regions, so data races introduced by a
  *wrong* plan show up as real nondeterminism across seeds.  This is
  the race-detection oracle of the conformance suite, not a
  performance backend.
* ``threads`` — one OS thread per worker, from one persistent *team*
  (``_TEAM``: one :class:`_Team` for the process, its threads spawned
  when a region needs more than are parked, each blocked on its own
  lock, and retired when a process pool is built).  The dispatcher
  hands job *i* to member *i* by releasing that member's lock and
  collects the outcomes from the members' done-locks in worker order
  (see ``_TEAM`` for what that costs).  Workers share
  the interpreter's storage exactly like the simulated machine; critical
  and atomic regions take real :class:`threading.Lock` locks.  Every job
  of a region has ended before its results — or its lowest-index
  worker's error — leave the backend.
* ``processes`` — one OS process per worker, from one persistent pool
  of forked children (:class:`_ChunkPool`), each on its own duplex
  pipe: a payload goes to an idle child, and its reply comes back on
  the same pipe.  Each region is encoded by the
  :mod:`repro.runtime.payload` codec: the shared state (global storage
  plus every shared storage list) is pickled once per region and
  attached to every payload of it, next to each worker's small frame
  delta; a pool child decodes it, runs its chunk against it and keeps
  nothing of it afterwards.  The module itself travels as persistent
  ids against the child's decoded modules; the pool keeps each child's
  ledger of them and sends a module's bytes along with the first
  payload a child gets of it, so no child ever lacks the module its
  payload names.  The child copies the region's storage table, runs its
  iterations through the plain compiled body (no write log, no store
  bookkeeping) and sends back its private reduction/lastprivate values
  plus the table slots that now differ from the copy.  The parent
  collects every result, then writes the diffs into its own table and
  merges reductions in worker order, so results are deterministic.
  Loops whose bodies contain ``critical``/``atomic`` regions need shared
  memory and fall back to the ``threads`` backend.  Dispatch is
  supervised — infrastructure failures retry the region — and a region
  that exhausts its retries fails over to ``threads``, once.

All backends consume the same :class:`ChunkScheduler` partition, so a
given ``(schedule, chunk, workers)`` triple executes the same
iteration-to-worker assignment everywhere.
"""

import atexit
import multiprocessing
import multiprocessing.connection
import os
import random
import threading
import time
from collections import OrderedDict

import repro.runtime.payload as payload_codec
from repro.codegen import cache as codegen_cache
from repro.codegen import runtime as codegen_runtime
from repro.emulator.interp import Interpreter
from repro.ir.basicblock import BasicBlock
from repro.runtime import faults, knobs
from repro.util.errors import (
    EmulationError, PlanError, RegionDispatchError, ReproError,
)
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


#: Re-dispatches of a ``processes`` region after infrastructure failures
#: before it fails over to ``threads``.
RETRY_BUDGET = 2

#: Base sleep (seconds) before a retry; retry N waits
#: ``RETRY_BACKOFF * 2 ** (N - 1)`` after the pool respawn.
RETRY_BACKOFF = 0.05


class ExecutionBackend:
    """Executes every worker of one parallel region to completion.

    ``run_region(interp, prepared, frame, workers, stats)`` runs the
    :class:`~repro.runtime.executor.PreparedRegion` ``prepared`` (member
    ``loops``, ``critical`` lock map, and the ``locks`` and ``entries`` a
    backend fills on the dispatching thread) from the enclosing
    ``frame`` with ``workers``, each ``segments`` listing its chunk of
    every member in order.  It must leave each worker's private storage
    (reductions, lastprivate copies) readable through ``worker.frame``
    in the parent interpreter, apply the workers' shared-memory effects,
    append the workers' ``print`` records to ``interp.output``
    deterministically (worker order unless the backend *is* the
    interleaving oracle), fill ``worker.steps``/``worker.seconds``, and
    count into ``stats``, its ``backend`` label first.  The interpreter
    performs the reduction/lastprivate join afterwards.
    """

    name = None

    def __repr__(self):
        return f"<{type(self).__name__}>"


# -- worker-local sequential execution ----------------------------------------


class _WorkerInterpreter(Interpreter):
    """Interpreter shell for one worker: own output/step counters.

    Shares (threads) or owns a copy of (processes) the global storage;
    never rebuilds it from initializers.  The threads backend keeps one
    per worker index for a run (``interp.shims``) and zeroes its
    counters per job.
    """

    def __init__(self, module, global_storage, max_steps):
        # global_storage is the run's live storage: shared with the
        # parent for threads, this worker's deserialized copy for
        # processes.
        super().__init__(module, max_steps, global_storage=global_storage)

    def run_chunk(self, loop, frame, iterations, locks):
        """Execute ``iterations`` of ``loop``'s body on ``frame``."""
        canonical = loop.canonical
        function = frame.function
        header = loop.header
        body = function.block(canonical.body)
        induction_storage = frame.objects[canonical.induction]
        held = set()
        decoded = self._decoded
        max_steps = self.max_steps
        try:
            for value in iterations:
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
    stats.codegen_fallbacks += after["fallbacks"] - before["fallbacks"]


# -- the three backends ---------------------------------------------------------


class SimulatedBackend(ExecutionBackend):
    """Seeded instruction-level interleaving (the race-detection oracle)."""

    name = "simulated"

    def run_region(self, interp, prepared, frame, workers, stats):
        stats.backend = self.name
        _Stepper(interp, workers, prepared.critical).run()


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

    def __init__(self, interp, workers, critical):
        self.interp = interp
        self.workers = workers
        self.critical = critical
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
                    elif block.name in critical or next_block.name in critical:
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


class _Member:
    """One parked team thread, ``repro-worker_N``, and its two locks.

    The thread blocks on ``go`` until the dispatcher hands it a job, runs
    it, leaves the outcome in ``outcome`` and releases ``done``.  Both
    locks start held, so each release is one hand-off either way.
    """

    __slots__ = ("go", "done", "job", "item", "outcome", "thread")

    def __init__(self, index):
        self.go = threading.Lock()
        self.go.acquire()
        self.done = threading.Lock()
        self.done.acquire()
        self.job = self.item = self.outcome = None
        self.thread = threading.Thread(
            target=self._park, name=f"repro-worker_{index}", daemon=True
        )
        self.thread.start()

    def _park(self):
        while True:
            self.go.acquire()
            job = self.job
            if job is None:  # retired
                return
            try:
                self.outcome = (job(self.item), None)
            except BaseException as exc:  # handed to the dispatcher
                self.outcome = (None, exc)
            self.done.release()

    def retire(self):
        self.job = None
        if self.go.locked():  # unlocked: a job handed over, not yet taken
            self.go.release()


class _Team:
    """The ``threads`` backend's parked worker threads, one per worker.

    Only as wide as the widest region seen: a wider one spawns the
    missing members, and none is ever replaced.  The caller holds
    ``_TEAM_LOCK`` across :meth:`run`, so two dispatching threads never
    share a member and a retirement waits out a region in flight.
    """

    def __init__(self):
        self.members = []

    def run(self, job, items):
        """``job(item)`` per item, each on its own member; every job's
        ``(result, error)`` in item order, once all have ended."""
        members = self.members
        while len(members) < len(items):
            members.append(_Member(len(members)))
        members = members[:len(items)]
        for member, item in zip(members, items):  # hand each its job
            member.job, member.item = job, item
            member.go.release()
        for member in members:  # until every job has ended
            member.done.acquire()
            member.job = member.item = None
        outcomes = [member.outcome for member in members]
        for member in members:
            member.outcome = None
        return outcomes

    def retire(self):
        for member in self.members:
            member.retire()
        for member in self.members:
            member.thread.join()


#: The ``threads`` backend's worker team: one for every region of every
#: run in this process, its threads spawned on demand — as many as the
#: widest region seen — and parked on their locks between regions.  Two
#: empty jobs, median of 5000 hand-offs on one pinned core of a 2-vCPU
#: Xeon VM (CPython 3.11): 25-37 us through the members' locks, 37-53 us
#: through the futures of the live thread-pool executor this team
#: replaced (one built and joined per region cost 96 us).
_TEAM = None
_TEAM_LOCK = threading.RLock()


def _team_run(job, items):
    """``job(item)`` per item on the team, every item at once; the
    results in item order, or the lowest-index error once every job has
    ended."""
    global _TEAM
    with _TEAM_LOCK:  # held until the last job ended: no sharing, and a
        # retirement waits the region out
        if _TEAM is None:
            _TEAM = _Team()
        team = _TEAM
        try:
            outcomes = team.run(job, items)
        except BaseException:
            # An interrupt while the jobs ran: the team retires — its
            # join waits every job out — and the next region starts anew.
            _TEAM = None
            team.retire()
            raise
    for _result, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _error in outcomes]


def _retire_team():
    """End the team's threads; the next ``threads`` region starts anew."""
    global _TEAM
    with _TEAM_LOCK:  # a pool build holds it on, through its forks
        team, _TEAM = _TEAM, None
        if team is not None:
            team.retire()  # parked threads exit in microseconds


def _forget_team():
    """In a forked child: the team object came along, its threads did not."""
    global _TEAM, _TEAM_LOCK
    _TEAM, _TEAM_LOCK = None, threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_team)


class ThreadsBackend(ExecutionBackend):
    """One OS thread per worker; shared storage; real locks for criticals."""

    name = "threads"

    def run_region(self, interp, prepared, frame, workers, stats):
        stats.backend = self.name
        active = [w for w in workers if w.size]
        if not active:
            return
        locks = prepared.locks
        if locks is None:
            locks = prepared.locks = _ThreadLocks(prepared.critical)
        compile_on = interp.compile_regions
        verify = compile_on and bool(knobs.VERIFY_COMPILED)
        entries = {}
        if compile_on:
            # Looked up once per prepared region (its function, so its
            # module, is fixed), here on the dispatching thread; jobs
            # only read.  A compiled body takes and releases ``locks``
            # on the same block edges the interpreter does, so
            # critical/atomic loops compile too.
            entries = prepared.entries
            if entries is None:
                before = codegen_cache.stats()
                analyses = interp.analyses_of(prepared.function)
                entries = prepared.entries = {
                    loop: codegen_cache.compiled_chunk(
                        interp.module, loop, analyses
                    )
                    for loop in prepared.loops
                }
                _count_codegen(stats, before, codegen_cache.stats())
        shims = interp.shims
        if shims is None:
            shims = interp.shims = [
                _WorkerInterpreter(
                    interp.module, interp._global_storage, interp.max_steps
                )
                for _worker in workers
            ]
            for shim in shims:
                shim._decoded = interp._decoded  # one decode per block per run

        def job(worker):
            start = time.perf_counter()
            shim = shims[worker.index]
            shim.steps, shim.output = 0, []
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
            if shim.output:
                interp.output.extend(shim.output)
            stats.compiled_chunks += compiled
            stats.interpreted_chunks += interpreted

    def _run_jobs(self, active, job):
        """Run ``job`` per worker concurrently; results in worker order.

        An error leaves only once every job has ended — no straggler may
        still write the storages after it — and it is the lowest-index
        worker's.
        """
        return list(zip(active, _team_run(job, active)))


class SerialBackend(ThreadsBackend):
    """Threads-backend semantics, one worker at a time.

    Identical partitioning, privatization, and worker-order merges, but
    each worker's chunk runs to completion on the dispatching thread
    before the next starts.  Not registered in :data:`BACKENDS`: only
    the armed ``threads`` path (``VERIFY_COMPILED``) and tests reach it.
    """

    name = "serial"

    def _run_jobs(self, active, job):
        return [(worker, job(worker)) for worker in active]


def _fork_preferred_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


def _pool_child(pipe, inherited):
    """A pool child's loop: ``(install, function, args)`` in,
    ``function(*args)`` out.

    ``install`` is ``None`` or the ``(key, bytes, drop)`` of a module
    this child's ledger just took in, installed before the call
    (:func:`~repro.runtime.payload.install_module`).  ``inherited`` are
    the parent's pipe ends this fork copied; closing them leaves every
    child's EOF to the parent alone.  EOF — or a parent that stopped
    listening — ends the loop.
    """
    for end in inherited:
        end.close()
    # Whatever the parent had decoded came along with the fork; the
    # child holds what its ledger names, and that starts empty.
    payload_codec._DECODED_MODULES.clear()
    try:
        while True:
            install, function, args = pipe.recv()
            if install is not None:
                payload_codec.install_module(*install)
            pipe.send(function(*args))
    except (EOFError, OSError):
        pass


class _ChunkPool:
    """``size`` forked children, each on its own duplex pipe.

    Forking a fresh child per worker per region costs ~10ms each, which
    dominates small kernels; a pool amortizes the fork across every
    region of every run, and payloads carry all state, so the children
    need no inherited context.  ``ledgers`` maps each pipe to the module
    keys its child holds, least recently used first — at most
    ``MODULE_CACHE_CAP``, built with the pool, dead with it.  ``lock``
    is held by one dispatch from its first send to its last reply, so no
    reply reaches another region.
    """

    def __init__(self, size):
        context = _fork_preferred_context()
        self.size = size
        self.lock = threading.Lock()
        self.closed = False
        self.pipes, self.children = [], []
        # The pool forks only here: no team thread may be alive, nor start
        # on another dispatching thread, until every child has.
        with _TEAM_LOCK:
            _retire_team()
            for _ in range(size):
                pipe, child_end = context.Pipe()
                # Daemonic: the exit handler of multiprocessing kills what
                # the atexit reset below has not.
                child = context.Process(
                    target=_pool_child, args=(child_end, [*self.pipes, pipe]),
                    daemon=True,
                )
                child.start()
                child_end.close()
                self.pipes.append(pipe)
                self.children.append(child)
        self.sentinels = [child.sentinel for child in self.children]
        self.ledgers = {pipe: OrderedDict() for pipe in self.pipes}

    def run(self, calls, timeout, module=None):
        """Each ``(function, args)`` of ``calls`` on an idle child; the
        replies, in call order, and how many module copies went out.
        The caller holds ``lock``.

        ``module`` is the :class:`~repro.runtime.payload.ModuleCodec`
        every call's payload names; a child whose ledger lacks it gets
        its bytes with the call.  A call waits for the first child to
        free when all are busy.  A closed pipe, a child's death or
        ``timeout`` seconds for the whole batch raise
        :class:`_InfraFailure`.
        """
        deadline = time.monotonic() + timeout
        replies = [None] * len(calls)
        pending = list(enumerate(calls))[::-1]
        idle = self.pipes[::-1]
        busy = {}  # pipe -> index of the call its child runs
        copies = 0
        try:
            while pending or busy:
                while pending and idle:
                    index, (function, args) = pending.pop()
                    pipe = idle.pop()
                    install = self._install(pipe, module) if module else None
                    copies += install is not None
                    pipe.send((install, function, args))
                    busy[pipe] = index
                ready = multiprocessing.connection.wait(
                    [*busy, *self.sentinels],
                    max(0.0, deadline - time.monotonic()),
                )
                if not ready:
                    raise _InfraFailure(
                        f"a pool child timed out after {timeout:.0f}s"
                    )
                for pipe in ready:
                    if pipe not in busy:
                        raise _InfraFailure("a pool child died")
                    replies[busy.pop(pipe)] = pipe.recv()
                    idle.append(pipe)
        except (EOFError, OSError) as exc:  # reset under us, or died
            raise _InfraFailure(
                f"a pool pipe closed: {type(exc).__name__}: {exc}"
            ) from None
        return replies, copies

    def _install(self, pipe, module):
        """What ``pipe``'s child must install before a payload naming
        ``module``: ``None`` if its ledger holds the key (now the most
        recent), else ``(key, bytes, key to drop or None)``."""
        ledger = self.ledgers[pipe]
        if module.key in ledger:
            ledger.move_to_end(module.key)
            return None
        ledger[module.key] = None
        drop = None
        if len(ledger) > payload_codec.MODULE_CACHE_CAP:
            drop, _ = ledger.popitem(last=False)
        return module.key, module.module_bytes, drop

    def kill(self):
        """End every child, busy or not, then close the pipes."""
        for child in self.children:
            child.terminate()
        for child in self.children:
            child.join()
            child.close()
        for pipe in self.pipes:
            pipe.close()


_POOL = None  # the live _ChunkPool, never a closed one
_POOL_LOCK = threading.Lock()

#: Hard ceiling on pool width regardless of the requested size.
_POOL_MAX_WORKERS = 16


def _desired_pool_size(requested):
    cpus = os.cpu_count() or 2
    if requested is None:
        return max(2, min(8, cpus, _POOL_MAX_WORKERS))
    return max(2, min(int(requested), cpus, _POOL_MAX_WORKERS))


def _chunk_pool(requested=None):
    """The shared :class:`_ChunkPool`, at least ``requested`` children wide.

    ``requested`` normally comes from the planner's machine-model core
    count (clamped to the actual CPU count); asking for more children
    than the live pool has kills it and builds a wider one.
    """
    global _POOL
    size = _desired_pool_size(requested)
    narrow = None
    with _POOL_LOCK:
        # A wider-than-requested pool is simply reused: callers with
        # different machine models (or the None default) alternating in
        # one process must not thrash teardown/re-fork cycles.
        if _POOL is not None and _POOL.size < size:
            narrow, _POOL = _POOL, None
            narrow.closed = True
        if _POOL is None:
            # Never recycled: a child keeps nothing between payloads but
            # at most MODULE_CACHE_CAP decoded modules.  A rebuild every
            # 128 regions — every 36 ops of ``run-procs-warm``'s traffic,
            # 1080 ops on one pinned core — cost mean 8.17 against 5.68
            # ms/op, p90 BT 36.4 / 6.7 and dense48 24.8 / 15.5 ms, and
            # bounded nothing: a never-recycled child is 28.1 MB RSS from
            # op 0 to op 1080 (27.8 MB after 2700 regions of 32 rotating
            # modules), each recycled generation forked from a grown
            # parent, the 31st at 34.1 MB.  A child that starts keeping
            # state between payloads is what would justify recycling again.
            _POOL = _ChunkPool(size)
        pool = _POOL
    if narrow is not None:
        narrow.kill()
    return pool


def _reset_chunk_pool(pool=None):
    """Kill ``pool`` (by default the live one) and its children; the next
    :func:`_chunk_pool` builds afresh, its ledgers empty.

    A dispatch that took the old pool first fails its sends as
    infrastructure and retries on the new one.
    """
    global _POOL
    with _POOL_LOCK:
        pool = pool or _POOL
        if _POOL is pool:
            _POOL = None
        if pool is None or pool.closed:
            return
        pool.closed = True
    pool.kill()


# Kill the children before interpreter shutdown dismantles the modules
# the pool's objects still reference.
atexit.register(_reset_chunk_pool)


def _pool_chunk_entry(wire, fault=None):
    """Pool-worker entry point: run one worker's chunk, return its report.

    ``wire`` is a :meth:`~repro.runtime.payload.WorkerPayload.wire`
    tuple.  The chunk runs through the loop's compiled entry (or the
    interpreter) against the decoded storage table, and the report's
    ``diffs`` are :func:`~repro.runtime.payload.diff_table` of that
    table against a copy taken before the run; a payload that arms the
    ``VERIFY_COMPILED`` oracle runs the same entry under it.  Never
    raises — errors come back as ``{"error": ...}`` so one bad chunk
    cannot poison the shared pool.  Decode failures (a payload naming a
    module this child does not hold among them) are tagged ``"phase":
    "decode"`` — they indict the wire/ledger machinery, not the program,
    so the supervisor retries them; execution failures stay untagged and
    fatal.

    ``fault`` is an injected-fault directive from
    :mod:`repro.runtime.faults` (chaos testing only): executed before
    anything else, exactly as a real mid-flight worker death or stall
    would land.
    """
    if fault is not None:
        faults.perform(fault)
    try:
        payload = payload_codec.decode_payload(wire)
    except BaseException as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "phase": "decode"}
    try:
        frame = payload["frame"]
        segments = payload["segments"]  # [(loop, iterations), ...]
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
                    # Keyed by the child's decoded module object: the
                    # first chunk of a module this child decoded lowers.
                    entry = codegen_cache.compiled_chunk(
                        payload["module"], loop, payload["analyses"]
                    )
                mode = codegen_runtime.execute_chunk(
                    entry, shim, loop, frame, iterations,
                    _NullLocks(), verify=reachable,
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

    Raised by :meth:`ProcessesBackend._dispatch_once` for worker death
    (a closed pipe or a fired sentinel), hangs, a pool reset under the
    dispatch, dropped results, and payload-decode failures — all
    cases where the deferred-apply invariant guarantees the parent state
    is still the pre-dispatch image.  Program errors raise plain
    :class:`EmulationError` instead and are never retried.
    """


class ProcessesBackend(ExecutionBackend):
    """One OS process per worker; serialized frames; diff-merged state.

    Dispatch is *supervised*: infrastructure failures — worker death,
    hangs, poisoned payloads — kill and respawn the pool and re-encode
    and re-dispatch the whole region, up to :data:`RETRY_BUDGET` times
    with exponential backoff from :data:`RETRY_BACKOFF`.  The
    deferred-apply collection makes this exactly-once: no shared-memory
    effect lands until every worker of the region reported, so a failed
    attempt leaves the parent state byte-identical to the pre-dispatch
    image.

    A region whose retries are exhausted (:class:`RegionDispatchError`)
    fails over to the threads backend once, from that same intact
    image; if threads fails too, one :class:`EmulationError` names both
    attempts.  Plain :class:`EmulationError` from the processes dispatch
    is a *program* error and propagates untouched.
    """

    name = "processes"

    def run_region(self, interp, prepared, frame, workers, stats):
        # Critical/atomic regions need shared memory, and a module the
        # pickler cannot walk cannot travel: delegate the whole region
        # to the threads backend (real locks) and record why.  (Regions
        # whose locks the sync-elimination pass removed no longer appear
        # in the critical map, so they stay here.)
        reason = None
        if any(
            block.name in prepared.critical
            for loop in prepared.loops
            for block in loop.blocks
        ):
            reason = "critical"
        else:
            try:
                payload_codec.module_codec(interp.module)
            except ReproError:
                reason = "unpicklable"
        if reason is not None:
            ThreadsBackend().run_region(
                interp, prepared, frame, workers, stats
            )
            stats.backend = f"{self.name}->threads({reason})"
            return
        stats.backend = self.name
        try:
            self._run_supervised(interp, prepared, frame, workers, stats)
            return
        except RegionDispatchError as exc:
            exhausted = exc
        stats.failovers += 1
        # The one way down, and the last.  Deferred apply left the
        # storages and worker frames untouched, so threads starts clean.
        # A serial re-run could not succeed where threads just failed:
        # - critical/atomic regions went to threads above, so here
        #   threads takes no lock and cannot deadlock;
        # - a thread that fails to start raises no EmulationError, so it
        #   propagates instead of reaching another backend;
        # - armed with VERIFY_COMPILED, threads already runs its workers
        #   one at a time;
        # - a program error under a legal plan depends only on a worker's
        #   own iterations and the state before the region, so a serial
        #   run would raise it again.
        try:
            ThreadsBackend().run_region(
                interp, prepared, frame, workers, stats
            )
        except EmulationError as exc:
            raise EmulationError(
                f"region {stats.header} failed on processes ({exhausted}) "
                f"and on threads after failing over ({exc})"
            ) from exc
        stats.backend = f"{self.name}->threads(failover)"

    def _run_supervised(self, interp, prepared, frame, workers, stats):
        """Dispatch with retries, then apply."""
        active = [w for w in workers if w.size]
        if not active:
            return
        plan = faults.active_plan()
        attempt = 0
        while True:
            try:
                table, completed = self._dispatch_once(
                    interp, prepared, frame, active, stats, plan
                )
                break
            except _InfraFailure as exc:
                attempt += 1
                if attempt > RETRY_BUDGET:
                    raise RegionDispatchError(
                        f"region dispatch failed after {attempt} "
                        f"attempts ({RETRY_BUDGET} retries): {exc}"
                    ) from exc
                stats.retries += 1
                started = time.perf_counter()
                time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
                stats.recovery_ms += (
                    time.perf_counter() - started
                ) * 1000.0
        for worker, result in completed:  # worker order: deterministic
            self._apply(interp, stats, worker, result, table)

    def _dispatch_once(self, interp, prepared, frame, active, stats, plan):
        """Encode, send, and collect one dispatch attempt of a region.

        Returns the storage table the payloads index and the
        ``(worker, result)`` list in worker order, without applying
        anything.  Raises :class:`_InfraFailure` for retryable
        infrastructure failures, after killing the pool (a stuck or
        half-dead child must not survive into the retry, and the next
        pool's ledgers are empty, so the retry sends the module again);
        :class:`EmulationError` for program errors.  ``plan`` is the
        active fault-injection plan (or None).  Module copies are counted
        in ``payload_bytes`` once the pool has replied.
        """
        pool = _chunk_pool(interp.pool_size)
        encoded = payload_codec.encode_region(
            module=interp.module,
            frame=frame,
            loops=prepared.loops,
            global_storage=interp._global_storage,
            max_steps=interp.max_steps,
            workers=active,
            compile_regions=interp.compile_regions,
        )
        ordinal = faults.next_region_ordinal() if plan else None
        calls = []
        dropped = set()  # worker list indices whose results are discarded
        for index, worker_payload in enumerate(encoded.workers):
            directive = None
            wire = worker_payload.wire()
            if plan:
                scenario = plan.draw(ordinal, index)
                if scenario is not None:
                    stats.faults_injected += 1
                    if scenario.kind in ("crash", "hang"):
                        directive = scenario.directive()
                    elif scenario.kind == "corrupt_wire":
                        wire = worker_payload.corrupted(scenario.seed).wire()
                    elif scenario.kind == "drop_result":
                        dropped.add(index)
            calls.append((_pool_chunk_entry, (wire, directive)))
        stats.payloads += len(calls)
        stats.payload_bytes += encoded.wire_bytes
        codec = encoded.codec
        # Collect every result before applying any of them: a retried
        # dispatch re-encodes the *pre-dispatch* state, so no worker's
        # shared-memory effects may land until the whole region is in.
        with pool.lock:
            try:
                results, copies = pool.run(
                    calls, _region_allowance(interp.max_steps), codec
                )
                stats.payload_bytes += copies * len(codec.module_bytes)
                return encoded.table, self._completed(active, results, dropped)
            except EmulationError:
                raise  # a program error: every reply is in, the pool sound
            except BaseException:
                # Infrastructure, or an interrupt with replies unread: no
                # child of this pool may serve another dispatch.
                _reset_chunk_pool(pool)
                raise

    @staticmethod
    def _completed(active, results, dropped):
        """``(worker, result)`` pairs in worker order, or the first
        worker's failure: a program error, or a retryable one."""
        completed = []
        for index, (worker, result) in enumerate(zip(active, results)):
            if result.get("phase") == "decode":
                # The wire or the ledgers are at fault, not the program:
                # a clean re-encode on a fresh pool may succeed.
                infra = f"failed to decode its payload: {result['error']}"
            elif "error" in result:
                raise EmulationError(
                    f"worker process {worker.index} failed: {result['error']}"
                )
            elif index in dropped:
                infra = "result dropped (injected fault)"
            else:
                completed.append((worker, result))
                continue
            raise _InfraFailure(f"worker process {worker.index} {infra}")
        return completed

    def _apply(self, interp, stats, worker, result, table):
        worker.steps = result["steps"]
        worker.seconds = result["seconds"]
        interp.steps += result["steps"]
        interp.output.extend(result["output"])
        chunk = result["stats"]
        stats.dirty_slots += chunk.dirty_slots
        stats.compiled_chunks += chunk.compiled_chunks
        stats.interpreted_chunks += chunk.interpreted_chunks
        stats.codegen_compiles += chunk.codegen_compiles
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


def get_backend(backend):
    """An :class:`ExecutionBackend` for a name (or pass an instance through)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend not in BACKENDS:
        raise PlanError(
            f"unknown execution backend {backend!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    return BACKENDS[backend]()
