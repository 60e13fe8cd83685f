"""Compiled critical sections: a chunk body takes its locks itself.

A loop holding ``critical``/``atomic`` blocks compiles like any other;
its body calls ``locks.transition`` on the block edges where
``_WorkerInterpreter.run_chunk`` does, and releases whatever it holds
when an iteration ends or the chunk raises.  These tests hold that body
to mutual exclusion on real threads, to releasing on error, and the
whole-function lowerings — which run on one thread between regions — to
taking no lock at all.
"""

import sys
import threading

import pytest

from repro.codegen import cache as codegen_cache
from repro.codegen.seq import compile_profiled, lower_sequence, sequence_stops
from repro.frontend import compile_source
from repro.planner.recipes import recipes_from_annotations
from repro.runtime import backends, knobs
from repro.runtime.backends import SerialBackend
from repro.runtime.executor import ParallelInterpreter
from repro.session import Session
from repro.util.errors import EmulationError
from support.plans import run_source_plan

#: The read and the write of ``total[0]`` are statements apart, with a
#: loop of work between them: without the lock two workers interleave
#: there and an increment is lost.
EXCLUDES = """
global total: int[1];
global scratch: int[8];

func main() {
  pragma omp parallel_for
  for i in 0..3000 {
    pragma omp KIND
    {
      var t: int = total[0];
      var w: int = 0;
      for k in 0..6 { w = w + k * i; }
      scratch[i % 8] = w;
      total[0] = t + 1;
    }
  }
  print(total[0]);
}
"""

#: The first run divides by zero inside the critical section at one of
#: worker 1's iterations; ``runs`` persists in the interpreter's storage,
#: so the second run divides by one.
DIVIDES = """
global total: int[1];
global runs: int[1];

func main() {
  runs[0] = runs[0] + 1;
  pragma omp parallel_for
  for i in 0..400 {
    pragma omp critical
    {
      var t: int = total[0];
      if (i == 300) { t = t + 1 / (runs[0] - 1); }
      total[0] = t + 1;
    }
  }
  print(total[0]);
}
"""


#: Two named locks per iteration, an ``if`` and a loop inside the first.
TWO_LOCKS = """
global total: int[1];
global hist: int[4];

func main() {
  pragma omp parallel_for
  for i in 0..12 {
    var b: int = i % 4;
    pragma omp critical
    {
      var t: int = total[0];
      if (b == 2) { t = t + 10; }
      for k in 0..3 { t = t + k; }
      total[0] = t;
    }
    pragma omp critical(other)
    { hist[b] = hist[b] + 1; }
  }
  print(total[0], hist[0], hist[2]);
}
"""


def _verify_off(monkeypatch):
    # Armed, a threads region runs its workers in turn: nothing to race.
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    knobs.refresh()


def _chunks(result):
    regions = result.parallel_regions
    return (
        sum(region["compiled_chunks"] for region in regions),
        sum(region["interpreted_chunks"] for region in regions),
    )


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["critical", "atomic"])
def test_a_compiled_critical_section_excludes(
        kind, monkeypatch, fast_switching):
    _verify_off(monkeypatch)
    module = compile_source(EXCLUDES.replace("KIND", kind))
    for _ in range(3):
        result = run_source_plan(module, workers=2, backend="threads")
        assert result.output == [(None, (3000,))]
        compiled, interpreted = _chunks(result)
        assert compiled > 0 and interpreted == 0


class _Recorded:
    """A region lock that logs what happens to it."""

    def __init__(self, key, log):
        self.key, self.log = key, log
        self.lock = threading.Lock()

    def acquire(self, timeout):
        self.log.append(("acquire", self.key))
        return self.lock.acquire(timeout=timeout)

    def release(self):
        self.log.append(("release", self.key))
        self.lock.release()


def _lock_log(module, compile_regions, monkeypatch):
    """The run's output and every lock event, one worker after another."""
    log = []
    real = backends._ThreadLocks.__init__

    def init(self, regions):
        real(self, regions)
        self._locks = {key: _Recorded(key, log) for key in self._locks}

    with monkeypatch.context() as patch:
        patch.setattr(backends._ThreadLocks, "__init__", init)
        result = run_source_plan(module, workers=2, backend=SerialBackend(),
                                 compile_regions=compile_regions)
    return result, log


@pytest.mark.parametrize("held_to_the_latch", [False, True])
def test_a_compiled_body_takes_the_interpreters_locks_in_its_order(
        held_to_the_latch, monkeypatch):
    """Lock for lock, the compiled body acquires and releases what
    ``run_chunk`` does, where it does: across an ``if`` and a loop
    inside a critical section, from one lock to the next, and — the
    second annotation stretched over the latch, as hand-written IR may
    — when an iteration returns to the header holding one."""
    _verify_off(monkeypatch)
    module = compile_source(TWO_LOCKS)
    if held_to_the_latch:
        [_first, second] = [
            annotation for annotation in module.function("main").annotations
            if annotation.directive.kind == "critical"
        ]
        second.block_names.extend(["critical.exit.1", "for.latch.1"])
    interpreted, expected = _lock_log(module, False, monkeypatch)
    compiled, log = _lock_log(module, True, monkeypatch)
    assert compiled.output == interpreted.output
    assert compiled.steps == interpreted.steps
    assert _chunks(compiled) == (2, 0) and _chunks(interpreted) == (0, 2)
    assert len(expected) == 12 * 4
    assert log == expected


def test_an_error_inside_a_compiled_critical_section_releases_the_lock(
        monkeypatch):
    _verify_off(monkeypatch)
    module = compile_source(DIVIDES)
    with pytest.raises(EmulationError) as interpreted:
        run_source_plan(compile_source(DIVIDES), workers=2,
                        backend="threads", compile_regions=False)

    # Every region's lock provider, to look at its locks afterwards.
    providers = []
    real = backends._ThreadLocks.__init__

    def init(self, regions):
        real(self, regions)
        providers.append(self)

    monkeypatch.setattr(backends._ThreadLocks, "__init__", init)
    monkeypatch.setattr(backends, "_LOCK_TIMEOUT", 2.0)
    interp = ParallelInterpreter(
        module, recipes_from_annotations(module.function("main")),
        workers=2, backend="threads",
    )
    with pytest.raises(EmulationError) as compiled:
        interp.run("main")
    assert str(compiled.value) == str(interpreted.value)
    assert "division by zero" in str(compiled.value)
    [provider] = providers
    assert provider._locks
    assert not any(lock.locked() for lock in provider._locks.values())

    before = interp._global_storage["total"][0]
    again = interp.run("main")  # no lock timeout: the second run ends
    assert again.output == [(None, (before + 400 + 1,))]  # 1 / 1 at 300
    assert _chunks(again) == (2, 0)


def test_sp_sequences_and_profiles_take_no_lock():
    """Between regions one thread runs: SP's whole-function lowerings
    call no lock at any ``-O`` level, while its critical chunk does."""
    session = Session.from_kernel("SP")
    function = session.function
    loops = session.analyses.loops_by_header
    profiled = compile_profiled(function, session.analyses.loops).source
    assert "locks." not in profiled
    for level in (0, 1, 2, 3):
        session.reconfigure(opt_level=level)
        regions = {
            region.header: region
            for region in session.region_recipes["PS-PDG"]
        }
        source, _refs = lower_sequence(
            function, sequence_stops(regions, function), loops
        )
        assert "locks." not in source, level
        assert "_held" not in source, level
    chunk = codegen_cache.compiled_chunk(session.module, loops["for.header.5"])
    assert "locks.transition(_held, " in chunk.source
