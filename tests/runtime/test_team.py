"""The ``threads`` backend's persistent worker team.

One team of parked threads serves every region of every run in the
process (``backends._TEAM``); these tests hold it to the contract the
executor-per-region it replaced kept for free — one thread per worker,
results in worker order, no error out of ``_run_jobs`` before every job
has ended, the lowest-index worker's error first — and to what only a
persistent team can get wrong: threads leaking or being replaced across
regions, two dispatching threads sharing it, and a process pool forking
while its threads are alive.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro import Session
from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.runtime import backends, knobs
from repro.runtime.executor import ParallelInterpreter
from repro.runtime.backends import SerialBackend, ThreadsBackend
from repro.util.errors import EmulationError
from support.conformance import outputs_close
from support.plans import prepared, run_source_plan

WAIT = 10.0  # seconds any one wait in here may take before it is a failure

REDUCTION = """
func main() {
  var s: int = 0;
  pragma omp parallel_for reduction(+: s)
  for i in 0..40 {
    s = s + i * i;
  }
  print(s);
}
"""

#: Worker 0 (``i == 0``) runs far past a small step budget; worker 1
#: finishes well inside it and then marks ``done[1]``.
RUNAWAY = """
global done: int[2];
global sink: int[2];

func main() {
  pragma omp parallel_for
  for i in 0..2 {
    var n: int = 40;
    if (i == 0) { n = 100000; }
    var acc: int = 0;
    for k in 0..n { acc = acc + k; }
    sink[i] = acc;
    done[i] = 1;
  }
  print(done[0], done[1]);
}
"""

#: Worker 1 (``i == 1``) sits in the critical section for a long loop;
#: worker 0 only wants it for a moment.
LONG_HOLD = """
global done: int[2];
global total: int[1];

func main() {
  pragma omp parallel_for
  for i in 0..2 {
    pragma omp critical
    {
      var n: int = 10;
      if (i == 1) { n = 60000; }
      for k in 0..n { total[0] = total[0] + 1; }
    }
    done[i] = 1;
  }
  print(total[0]);
}
"""


def team_threads():
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-worker")
    }


@pytest.fixture(autouse=True)
def fresh_team():
    backends._retire_team()
    assert not team_threads()
    yield
    backends._retire_team()
    assert not team_threads()


@pytest.fixture
def executors_built(monkeypatch):
    """Every team (``backends._Team``) constructed while the test runs."""
    built = []
    real = backends._Team

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(backends, "_Team", spy)
    return built


def rendezvous(width):
    """A region of ``width`` jobs that all must be running at once."""
    barrier = threading.Barrier(width)

    def job(index):
        barrier.wait(WAIT)  # a team narrower than the region breaks it
        return index * index

    results = ThreadsBackend()._run_jobs(list(range(width)), job)
    assert results == [(index, index * index) for index in range(width)]


def sequenced(monkeypatch, first, then):
    """Start worker ``then``'s job only once ``first``'s says so.

    Returns the event: worker ``first``'s job sets it when it ends, and
    the caller may set it sooner.
    """
    go = threading.Event()
    real = ThreadsBackend._run_jobs

    def run_jobs(self, active, job):
        def ordered(worker):
            if worker.index == then:
                assert go.wait(WAIT)
                return job(worker)
            try:
                return job(worker)
            finally:
                if worker.index == first:
                    go.set()

        return real(self, active, ordered)

    monkeypatch.setattr(ThreadsBackend, "_run_jobs", run_jobs)
    return go


def interpreter(source, **options):
    module = compile_source(source)
    return ParallelInterpreter(
        module, prepared(module), workers=2, backend="threads", **options,
    )


# -- (a) one team, as wide as the widest region seen ------------------------------


def test_forty_regions_keep_the_first_regions_threads(executors_built):
    # Counted by name: ``threading.active_count()`` also moves with a
    # process pool's manager thread still dying from the test before.
    rendezvous(2)
    first = team_threads()
    assert len(first) == 2
    team = backends._TEAM

    expected = run_module(compile_source(REDUCTION)).formatted_output()
    for _ in range(20):
        rendezvous(2)
        assert team_threads() == first
        result = run_source_plan(
            compile_source(REDUCTION), workers=2, backend="threads"
        )
        assert result.formatted_output() == expected
        assert team_threads() == first  # parked and reused, never replaced

    # A wider region widens the same team: eight threads at once (the
    # barrier proves it), the first two still among them.
    rendezvous(8)
    assert backends._TEAM is team and executors_built == [team]
    assert len(team_threads()) == 8
    assert first < team_threads()
    rendezvous(2)
    assert len(team_threads()) == 8


def test_serial_backend_never_builds_a_team(executors_built):
    module = compile_source(REDUCTION)
    expected = run_module(module).formatted_output()
    result = run_source_plan(module, workers=3, backend=SerialBackend())
    assert result.formatted_output() == expected
    assert executors_built == [] and backends._TEAM is None


# -- (b) errors leave only when every job has ended --------------------------------


def test_the_lowest_index_error_surfaces_after_every_job_has_ended():
    ended = []
    release = threading.Event()

    def job(index):
        try:
            if index == 0:
                assert release.wait(WAIT)  # the *last* to fail ...
                raise ValueError("worker 0")
            if index == 1:
                raise KeyError("worker 1")  # ... the first
            if index == 2:
                time.sleep(0.05)
                release.set()
                time.sleep(0.05)  # still going when worker 0 fails
            return index
        finally:
            ended.append(index)

    with pytest.raises(ValueError, match="worker 0"):
        ThreadsBackend()._run_jobs([0, 1, 2], job)
    assert sorted(ended) == [0, 1, 2]
    rendezvous(3)  # the team took no harm


def test_runaway_worker_reports_after_its_sibling_finished(monkeypatch):
    sequenced(monkeypatch, first=0, then=1)  # worker 1 starts after 0 died
    interp = interpreter(RUNAWAY, max_steps=5000)
    with pytest.raises(
        EmulationError, match="^parallel worker exceeded max_steps$"
    ):
        interp.run("main")
    # The straggler's last shared write is there when the error is.
    assert interp._global_storage["done"] == [0, 1]
    monkeypatch.undo()

    parked = team_threads()  # one may have run both jobs, in turn
    assert parked
    expected = run_module(compile_source(RUNAWAY)).formatted_output()
    again = interpreter(RUNAWAY).run("main")
    assert again.formatted_output() == expected
    assert parked <= team_threads()


def test_lock_timeout_reports_after_the_holder_finished(monkeypatch):
    monkeypatch.setattr(backends, "_LOCK_TIMEOUT", 0.02)
    holding = sequenced(monkeypatch, first=1, then=0)
    real = backends._ThreadLocks.transition

    def transition(self, held, from_block, to_block):
        real(self, held, from_block, to_block)
        if held:
            holding.set()  # worker 1 is inside: let worker 0 start

    monkeypatch.setattr(backends._ThreadLocks, "transition", transition)
    interp = interpreter(LONG_HOLD)
    with pytest.raises(
        EmulationError,
        match=r"^deadlock: lock 'critical:<anonymous>' not released "
              r"within 0\.02s$",
    ):
        interp.run("main")
    # Worker 0 gave up while worker 1 held the lock; worker 1 then ran
    # to its end before the error left the region.
    assert interp._global_storage["done"] == [0, 1]
    assert interp._global_storage["total"] == [60000]
    monkeypatch.undo()

    parked = team_threads()
    assert len(parked) == 2  # both were running when worker 0 gave up
    expected = run_module(compile_source(LONG_HOLD)).formatted_output()
    again = interpreter(LONG_HOLD).run("main")
    assert again.formatted_output() == expected
    assert team_threads() == parked


# -- (c) two dispatching threads share it ---------------------------------------------


def test_two_sessions_on_two_python_threads_match_the_emulator():
    sessions = [Session.from_kernel("IS"), Session.from_kernel("MG")]
    expected = [session.execution.output for session in sessions]
    for session in sessions:
        session.compiled_regions
    failures = []

    def drive(session, reference):
        try:
            for _ in range(12):
                result = session.run(
                    "PS-PDG", opt="-O0", workers=3, backend="threads"
                )
                if not outputs_close(result.output, reference):
                    failures.append((session.config.name, result.output))
        except BaseException as exc:  # reported below, on the main thread
            failures.append((session.config.name, repr(exc)))

    drivers = [
        threading.Thread(target=drive, args=pair)
        for pair in zip(sessions, expected)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the dispatchers and the team
    try:
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(driver.is_alive() for driver in drivers)
    assert failures == []
    assert len(team_threads()) <= 3  # one team, no wider than a region


#: One more iteration on every entry: each entry refreshes the
#: region's partition.
GROWING = """
global a: int[24];

func main() {
  var s: int = 0;
  for t in 0..24 {
    pragma omp parallel_for reduction(+: s)
    for i in 0..t + 1 {
      a[i] = a[i] + t * 3 + i;
      s = s + a[i];
    }
  }
  print(s, a[0], a[23]);
}
"""


def test_one_session_on_two_python_threads_matches_the_emulator():
    """Two threads dispatch the same prepared regions at once: GROWING
    refreshes its region's partition under the other thread, and IS's
    critical section shares one region's locks."""
    sessions = [  # with the plan each runs
        (Session.from_source(GROWING, name="growing", workers=3,
                             backend="threads"), "OpenMP"),
        # -O0: on a GIL build IS's -O2 threads plan runs in place.
        (Session.from_kernel("IS", opt_level=0, workers=3,
                             backend="threads"), "PS-PDG"),
    ]
    for session, plan in sessions:
        assert session.run(plan).parallel_regions  # what both then share
        session.execution  # the reference, built before the threads start
    failures = []

    def drive(session, plan):
        try:
            for _ in range(8):
                result = session.run(plan)
                if not outputs_close(
                    result.output, session.execution.output
                ):
                    failures.append((session.config.name, result.output))
        except BaseException as exc:  # reported below, on the main thread
            failures.append((session.config.name, repr(exc)))

    drivers = [
        threading.Thread(target=drive, args=pair)
        for pair in sessions for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the dispatchers and the team
    try:
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(driver.is_alive() for driver in drivers)
    assert failures == []


# -- (d) the failover ---------------------------------------------------------------------


def _shape(result):
    """What a rung must reproduce: output, steps, who ran what."""
    return (
        result.output,
        result.steps,
        [
            [(w["iterations"], w["steps"]) for w in region["per_worker"]]
            for region in result.parallel_regions
        ],
    )


def test_the_threads_rung_and_serial_give_the_threads_result(monkeypatch):
    backends._reset_chunk_pool()
    session = Session.from_kernel("EP")
    try:
        plain = session.run("PS-PDG", opt="-O0", workers=2, backend="threads")
        serial = session.run(
            "PS-PDG", opt="-O0", workers=2, backend=SerialBackend()
        )
        monkeypatch.setattr(backends, "RETRY_BUDGET", 1)
        monkeypatch.setattr(backends, "RETRY_BACKOFF", 0.01)
        knobs.REPRO_FAULTS.value = "crash:p=1:seed=1:times=0"
        rung = session.run(
            "PS-PDG", opt="-O0", workers=2, backend="processes"
        )
    finally:
        knobs.refresh()
        backends._reset_chunk_pool()
    assert [region["backend"] for region in rung.parallel_regions] == [
        "processes->threads(failover)"
    ]
    assert outputs_close(plain.output, session.execution.output)
    assert _shape(serial) == _shape(plain)  # bitwise, floats included
    assert _shape(rung) == _shape(plain)


# -- fork hygiene -------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the chunk pool forks only where fork exists",
)


@pytest.fixture
def forks(monkeypatch):
    """The team threads alive at every fork while the test runs."""
    alive = []
    real = os.fork

    def spy():
        alive.append(sorted(thread.name for thread in team_threads()))
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return alive


@needs_fork
def test_no_team_thread_is_alive_when_a_process_pool_is_built(forks):
    """Before each pool build a ``threads`` run has left team threads
    parked; the build retires them, so no fork copies one."""
    backends._reset_chunk_pool()
    session = Session.from_kernel("IS")
    results, sizes = [], []
    try:
        for _ in range(3):
            threaded = session.run("PS-PDG", workers=2, backend="threads")
            assert outputs_close(threaded.output, session.execution.output)
            assert team_threads()  # parked, as the threads run left them
            # No pool: this run's first processes region builds one, forks.
            backends._reset_chunk_pool()
            results.append(session.run(
                "PS-PDG", workers=2, backend="processes"
            ))
            sizes.append(backends._POOL.size)
    finally:
        backends._reset_chunk_pool()
    for result in results:
        labels = [region["backend"] for region in result.parallel_regions]
        assert "processes" in labels
        assert outputs_close(result.output, session.execution.output)
    assert forks == [[]] * sum(sizes)


@needs_fork
def test_a_pool_build_forks_while_another_thread_runs_threads_regions(forks):
    """The build holds ``_TEAM_LOCK`` from the team's retirement through
    its last fork, so a ``threads`` region on another Python thread can
    neither spawn a team thread in between nor lose its own."""
    module = compile_source(REDUCTION)
    expected = run_module(module).formatted_output()
    stop = threading.Event()
    failures = []

    def drive():
        try:
            while not stop.is_set():
                result = run_source_plan(module, workers=2, backend="threads")
                if result.formatted_output() != expected:
                    failures.append(result.formatted_output())
        except BaseException as exc:  # reported below, on the main thread
            failures.append(repr(exc))

    driver = threading.Thread(target=drive)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        driver.start()
        for _ in range(20):
            backends._reset_chunk_pool()
            backends._chunk_pool(2)
    finally:
        stop.set()
        driver.join(WAIT)
        sys.setswitchinterval(interval)
        backends._reset_chunk_pool()
    assert not driver.is_alive()
    assert failures == []
    assert len(forks) == 20 * backends._desired_pool_size(2)
    assert forks == [[]] * len(forks)


@needs_fork
def test_warm_mg_runs_keep_their_team_and_their_pool(forks):
    """MG's downgraded regions run on the team between the pool's: three
    ``-O2`` runs on ``processes`` keep the same team threads and the same
    children — no team respawn, and no fork after the pool's build."""
    backends._reset_chunk_pool()
    # Priced for the compiled engine, as the CLI's --compile plans it.
    session = Session.from_kernel("MG", opt_level=2, compile_regions=True)
    seen = []
    try:
        for _ in range(3):
            result = session.run("PS-PDG", workers=2, backend="processes")
            assert outputs_close(result.output, session.execution.output)
            pool = backends._POOL
            seen.append((
                team_threads(), pool, [child.pid for child in pool.children]
            ))
    finally:
        backends._reset_chunk_pool()
    labels = {region["backend"] for region in result.parallel_regions}
    assert "processes" in labels
    assert any(label.startswith("processes->threads") for label in labels)
    assert seen[0][0] and seen == [seen[0]] * 3
    assert len(forks) == seen[0][1].size  # the one build


def _probe(connection):
    """In a forked child: what team it starts with, and a region on it."""
    inherited = backends._TEAM
    result = run_source_plan(
        compile_source(REDUCTION), workers=2, backend="threads"
    )
    connection.send((inherited is None, result.formatted_output()))
    connection.close()


@needs_fork
def test_a_forked_child_starts_with_no_team():
    rendezvous(2)
    assert backends._TEAM is not None and len(team_threads()) == 2
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_probe, args=(sender,))
    child.start()
    sender.close()
    try:
        # The parent's executor object would be there, its threads not:
        # a submit to it would queue for ever.
        assert receiver.poll(WAIT), "the child never finished its region"
        no_team, output = receiver.recv()
    finally:
        child.join(WAIT)
        if child.is_alive():
            child.kill()
    assert no_team
    assert output == run_module(compile_source(REDUCTION)).formatted_output()
    assert child.exitcode == 0
