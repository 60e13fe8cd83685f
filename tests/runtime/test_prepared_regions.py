"""Nothing a dispatch reuses goes stale.

A planned region has one runtime record,
:class:`~repro.runtime.executor.PreparedRegion`: loops, bound getters,
privatization plan, lock map, and once dispatched its locks, compiled
chunks and the last entry's partition.  A Session's plan is prepared
once per stage build, in its function; a run dispatches only prepared
records, each where control reaches its header block; recipes are
frozen, so a changed recipe is a new one.  Each test here changes
something between two runs and wants what a fresh session (or a fresh
recipe) dispatches: the same output, and the same partition — per
worker, the iterations it ran and the steps they took, which differ
from iteration to iteration in these programs.
"""

import dataclasses

import pytest

import repro.session
from repro import Session
from repro.analysis.record import FunctionAnalyses
from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.planner.machine import MachineModel
from repro.planner.recipes import recipes_from_annotations
from repro.runtime import backends, run_parallel
from repro.runtime.backends import SerialBackend
from repro.runtime.executor import ParallelInterpreter, PreparedRegion
from repro.util.errors import PlanError
from support.plans import prepared

#: Iteration ``i`` runs ``i`` inner trips: a worker's steps tell which
#: iterations it ran.  ``s`` is a sum reduction, ``last`` lastprivate.
UNEVEN = """
global out: int[48];

func main() {
  var s: int = 0;
  var last: int = 0;
  pragma omp parallel_for reduction(+: s) lastprivate(last)
  for i in 0..48 {
    var acc: int = 0;
    for k in 0..i { acc = acc + k; }
    out[i] = acc;
    s = s + acc;
    last = i;
  }
  print(s, last, out[47]);
}
"""


#: Two tiny loops: ``-O0`` dispatches both, ``-O2`` prices both
#: sequential and dispatches none.
TINY = """
global a: int[32];
global b: int[32];

func main() {
  for i in 0..32 {
    a[i] = i * 3;
  }
  for j in 0..32 {
    b[j] = a[j] + 1;
  }
  print(a[31], b[31]);
}
"""


def shape(result):
    """What a run dispatched: output, and per region its label, its
    backend and per worker the iterations and steps."""
    return (
        result.output,
        [
            (
                region["header"],
                region["backend"],
                [(w["iterations"], w["steps"]) for w in region["per_worker"]],
            )
            for region in result.parallel_regions
        ],
    )


@pytest.fixture(autouse=True)
def fresh_team():
    backends._retire_team()
    yield
    backends._retire_team()


def test_per_run_overrides_dispatch_what_a_fresh_session_does():
    session = Session.from_source(UNEVEN, name="uneven")
    for overrides in (
        {},
        {"schedule": "dynamic", "chunk": 5},
        {"schedule": "guided"},
        {"schedule": "static", "chunk": 4, "workers": 3},
        {"workers": 4},
        {},
    ):
        options = {"backend": "threads", "workers": 2, **overrides}
        fresh = Session.from_source(UNEVEN, name="uneven").run(**options)
        assert shape(session.run(**options)) == shape(fresh), overrides


@pytest.mark.parametrize("plan", ["OpenMP", "PS-PDG"])
def test_a_sessions_records_outlive_every_override(monkeypatch, plan):
    """The records a session dispatches are the ones its stage built,
    whatever a run overrides; each run dispatches what a fresh session
    does."""
    dispatched = []
    real = repro.session.run_parallel

    def spy(module, regions, *args, **kwargs):
        dispatched.append(regions)
        return real(module, regions, *args, **kwargs)

    monkeypatch.setattr(repro.session, "run_parallel", spy)
    # Configured for the backend its runs use: a run on another one
    # prices its plan, and so stages its records, for that backend.
    session = Session.from_source(UNEVEN, name="uneven", backend="threads")
    for overrides in (
        {},
        {"schedule": "dynamic", "chunk": 5},
        {"workers": 3},
        {"schedule": "guided", "workers": 4},
        {},
    ):
        options = {"backend": "threads", "workers": 2, **overrides}
        after = session.run(plan, **options)
        expected = Session.from_source(UNEVEN, name="uneven").run(
            plan, **options
        )
        assert shape(after) == shape(expected), overrides
    records = dispatched[0]
    assert records and all(type(r) is PreparedRegion for r in records)
    assert all(r.function is session.function for r in records)
    assert all(regions is records for regions in dispatched[::2])
    assert records is (
        session._stage("source_regions") if plan == "OpenMP"
        else session.region_recipes[plan]
    )


def test_a_record_reached_in_another_modules_function_is_refused():
    session = Session.from_source(UNEVEN, name="uneven")
    (record,) = session.region_recipes["PS-PDG"]
    other = compile_source(UNEVEN)
    for compiled in (True, False):
        with pytest.raises(PlanError, match=record.label):
            run_parallel(
                other, session.region_recipes["PS-PDG"],
                backend="threads", workers=2, compile_regions=compiled,
            )


def _run(module, records, **options):
    options = {"workers": 3, "backend": "threads", **options}
    return run_parallel(module, records, **options)


#: A region entered 12 times, with one more iteration on every entry
#: (a wavefront's shape): no entry can reuse the last one's partition.
GROWING = """
global a: int[12];

func main() {
  for t in 0..12 {
    pragma omp parallel_for
    for i in 0..t + 1 {
      a[i] = a[i] + t * 3 + i;
    }
  }
  print(a[0], a[5], a[11]);
}
"""


def _chunks(split):
    """Per worker, its iterations of each member, from a partition memo."""
    _key, segments, _sizes, _iterations, _owners = split
    return [[chunk for _loop, chunk in worker] for worker in segments]


@pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
def test_bounds_that_change_on_every_entry_keep_one_partition(backend):
    module = compile_source(GROWING)
    records = prepared(module)
    result = _run(module, records, backend=backend)
    assert result.output == run_module(compile_source(GROWING)).output
    assert [
        sum(worker["iterations"] for worker in region["per_worker"])
        for region in result.parallel_regions
    ] == list(range(1, 13))
    # One entry, the last one's: replaced on every entry, never grown.
    split = records[0].split
    key, _segments, sizes, iterations, owners = split
    assert key == ("static", None, (0, 12, 1), 3)
    assert iterations == 12 and sum(sizes) == 12 and owners == []
    assert sorted(
        i for worker in _chunks(split) for chunk in worker for i in chunk
    ) == list(range(12))


def test_a_chunk_or_schedule_override_rekeys_the_partition():
    module = compile_source(UNEVEN)
    records = prepared(module)
    before = _run(module, records)
    split = records[0].split
    assert shape(_run(module, records)) == shape(before)
    assert records[0].split is split  # the bounds stayed put
    for overrides in (  # each differs from the run before
        {"chunk": 5},
        {"schedule": "dynamic", "chunk": 5},
        {"schedule": "guided"},
        {},
    ):
        after = _run(module, records, **overrides)
        fresh_module = compile_source(UNEVEN)
        fresh_records = prepared(fresh_module)
        expected = _run(fresh_module, fresh_records, **overrides)
        assert shape(after) == shape(expected), overrides
        rekeyed = records[0].split
        fresh = fresh_records[0].split
        assert rekeyed[0] == fresh[0]
        assert rekeyed[0][:2] == (
            overrides.get("schedule", "static"), overrides.get("chunk")
        )
        assert _chunks(rekeyed) == _chunks(fresh)
        assert rekeyed is not split, overrides
        split = rekeyed


@pytest.mark.parametrize("change", ["chunk", "reduction", "private"])
def test_a_replaced_recipe_dispatches_as_replaced(change):
    """A recipe is frozen: a change is a new recipe, prepared anew, and
    the records prepared from the old one dispatch as before."""

    def replaced(module):
        (region,) = recipes_from_annotations(module.function("main"))
        (recipe,) = region.recipes
        if change == "chunk":
            return dataclasses.replace(recipe, chunk=5)
        if change == "reduction":
            (storage, _op), = recipe.reductions
            return dataclasses.replace(recipe, reductions=[(storage, "max")])
        # ``out`` private, never written back: it stays 0.
        return dataclasses.replace(
            recipe,
            privatized=recipe.privatized + (module.globals["out"],),
        )

    module = compile_source(UNEVEN)
    records = prepared(module)
    before = _run(module, records)
    changed = prepared(module, [replaced(module)])
    after = _run(module, changed)
    fresh_module = compile_source(UNEVEN)
    expected = _run(
        fresh_module, prepared(fresh_module, [replaced(fresh_module)])
    )
    assert shape(after) == shape(expected)
    assert shape(after) != shape(before)
    assert shape(_run(module, records)) == shape(before)


def test_two_prepare_plan_calls_over_two_forests_each_dispatch_their_own_loops():
    dispatched = []

    class Spy(SerialBackend):
        def run_region(self, interp, prepared, frame, workers, stats):
            dispatched.append(prepared)
            super().run_region(interp, prepared, frame, workers, stats)

    module = compile_source(UNEVEN)
    function = module.function("main")
    forests = [
        FunctionAnalyses(function, module).loops_by_header for _ in range(2)
    ]
    plans = [prepared(module, None, "main", loops) for loops in forests]
    first = _run(module, plans[0], backend=Spy())
    again = _run(module, plans[1], backend=Spy())
    (header,) = plans[0][0].headers
    assert dispatched == [plans[0][0], plans[1][0]]
    assert dispatched[0].loops[0] is forests[0][header]
    assert dispatched[1].loops[0] is forests[1][header]
    assert shape(again) == shape(first)


def test_a_bare_recipe_is_refused_at_construction():
    module = compile_source(UNEVEN)
    (region,) = recipes_from_annotations(module.function("main"))
    (recipe,) = region.recipes
    for bare in (recipe, region):
        with pytest.raises(PlanError, match=f"{recipe.header}.*prepare_plan"):
            ParallelInterpreter(module, [bare])


#: ``main`` runs a planned loop and then calls ``bump``, whose loop the
#: frontend names ``for.header`` too: a region is its header *block*,
#: so ``main``'s plan never meets ``bump``'s loop.
CALLS_A_LOOP = """
global a: int[64];
global b: int[64];

func bump(p: int[64]) {
  pragma omp parallel_for
  for k in 0..64 {
    p[k] = p[k] + k;
  }
}

func main() {
  pragma omp parallel_for
  for i in 0..64 {
    a[i] = i * 7;
  }
  bump(a);
  for j in 1..64 {
    b[j] = b[j - 1] + a[j];
  }
  print(a[63], b[63]);
}
"""


@pytest.mark.parametrize("plan", ["source", "PS-PDG"])
@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
def test_a_callee_loop_of_the_same_name_runs_sequentially(
        backend, compiled, plan):
    session = Session.from_source(
        CALLS_A_LOOP, name="calls", backend=backend, workers=3,
        compile_regions=compiled,
    )
    result = session.run(plan)
    assert result.output == run_module(compile_source(CALLS_A_LOOP)).output
    (region,) = result.parallel_regions
    assert region["header"] == "for.header"
    assert sum(w["iterations"] for w in region["per_worker"]) == 64


def test_a_callers_and_a_callees_records_run_concatenated():
    module = compile_source(CALLS_A_LOOP)
    records = prepared(module) + prepared(module, None, "bump")
    result = _run(module, records)
    assert result.output == run_module(compile_source(CALLS_A_LOOP)).output
    assert [region["header"] for region in result.parallel_regions] == [
        "for.header", "for.header"
    ]


#: ``fill``'s loop is planned; ``main``'s loop of the same name carries
#: a dependence, so it must never be taken over by ``fill``'s region.
CARRIED_BESIDE_A_CALLEE = """
global a: int[64];
global out: int[64];

func fill(p: int[64]) {
  pragma omp parallel_for
  for i in 0..64 {
    p[i] = i * 3;
  }
}

func main() {
  for t in 1..64 {
    a[t] = a[t - 1] * 3 + t;
  }
  fill(out);
  var s: int = 0;
  for k in 0..64 {
    s = s + a[k] % 1000 + out[k];
  }
  print(s);
}
"""


@pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
def test_a_callees_records_never_take_over_the_callers_loop(backend):
    module = compile_source(CARRIED_BESIDE_A_CALLEE)
    assert run_module(module).output == [(None, (36472,))]
    result = _run(module, prepared(module, None, "fill"), backend=backend)
    assert result.output == [(None, (36472,))]
    assert len(result.parallel_regions) == 1
    bare = recipes_from_annotations(module.function("fill"))
    with pytest.raises(PlanError, match="for.header.*prepare_plan"):
        _run(module, bare, backend=backend)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_a_new_source_text_runs_the_new_program(backend):
    """A second program under the same name, run after the first in one
    process (one team, one pool), runs its own text, not what the first
    left prepared, cached or installed."""
    options = {"backend": backend, "workers": 2}
    first = Session.from_source(UNEVEN, name="uneven", **options)
    before = first.run("PS-PDG")
    changed = UNEVEN.replace("0..48", "0..40").replace("out[47]", "out[39]")
    second = Session.from_source(changed, name="uneven", **options)
    after = second.run("PS-PDG")
    assert after.output == second.execution.output != before.output
    (region,) = after.parallel_regions
    assert sum(w["iterations"] for w in region["per_worker"]) == 40
    assert shape(first.run("PS-PDG")) == shape(before)


def test_reconfigure_rekeys_the_next_run():
    session = Session.from_source(UNEVEN, name="uneven", backend="threads")
    session.run("PS-PDG")
    session.run()
    session.reconfigure(workers=3, schedule="dynamic", chunk=3)
    fresh = Session.from_source(
        UNEVEN, name="uneven", backend="threads", workers=3,
        schedule="dynamic", chunk=3,
    )
    assert shape(session.run()) == shape(fresh.run())
    assert shape(session.run("PS-PDG")) == shape(fresh.run("PS-PDG"))


def test_reconfiguring_a_stage_field_replans_the_next_run():
    session = Session.from_source(TINY, name="tiny", backend="threads")
    assert len(session.run("PS-PDG").parallel_regions) == 2
    session.reconfigure(opt_level=2)
    fresh = Session.from_source(
        TINY, name="tiny", backend="threads", opt_level=2
    )
    assert shape(session.run("PS-PDG")) == shape(fresh.run("PS-PDG"))
    assert not fresh.run("PS-PDG").parallel_regions


def test_a_calibrating_observation_rekeys_the_next_run(tmp_path):
    """IS planned by a model that calls the wire free: run 1 observes
    the pool, and run 2 must dispatch what a session that loaded run 1's
    observations plans (``examples/is_calibration.py``)."""
    config = {
        "opt_level": 2, "backend": "processes", "workers": 2,
        "calibrate": True, "profile_path": str(tmp_path / "profile.json"),
        "machine": MachineModel(
            serial_region_cost=1, threads_region_cost=2,
            payload_cost_per_byte=1e-9,
        ),
    }
    backends._reset_chunk_pool()
    try:
        session = Session.from_kernel("IS", **config)
        first = session.run("PS-PDG")
        fresh = Session.from_kernel("IS", **config)
        # Loaded from run 1's save.
        assert fresh.calibration.measured_coefficients()
        second = session.run("PS-PDG")
        expected = fresh.run("PS-PDG")
    finally:
        backends._reset_chunk_pool()
    assert shape(second) == shape(expected)
    assert [region["backend"] for region in second.parallel_regions] != [
        region["backend"] for region in first.parallel_regions
    ]
