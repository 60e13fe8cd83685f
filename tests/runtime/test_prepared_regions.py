"""Nothing a dispatch reuses goes stale.

A region keeps what its dispatches reuse (``RegionParallelization.
prepared``: loops, schedulers, bound getters, privatization plan, lock
map), and a Session keeps each stage's content key; both are rebuilt
whenever anything they were built from changes.  Each test here makes
such a change between two runs and wants what a fresh session (or a
fresh recipe) dispatches: the same output, and the same partition —
per worker, the iterations it ran and the steps they took, which differ
from iteration to iteration in these programs.
"""

import pytest

import repro.session
from repro import Session
from repro.analysis.loops import find_natural_loops
from repro.frontend import compile_source
from repro.planner.machine import MachineModel
from repro.planner.recipes import as_region, recipes_from_annotations
from repro.runtime import backends, run_parallel

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


def test_two_source_plan_runs_dispatch_the_same_regions(monkeypatch):
    dispatched = []
    real = repro.session.run_parallel

    def spy(module, regions, *args, **kwargs):
        dispatched.append(list(regions))
        return real(module, regions, *args, **kwargs)

    monkeypatch.setattr(repro.session, "run_parallel", spy)
    session = Session.from_source(UNEVEN, name="uneven")
    first = session.run(backend="threads", workers=2)
    prepared = [region.prepared for region in dispatched[0]]
    second = session.run(plan="OpenMP", backend="threads", workers=2)
    assert len(dispatched) == 2 and dispatched[0]
    assert all(one is other for one, other in zip(*dispatched))
    assert [region.prepared for region in dispatched[1]] == prepared
    assert None not in prepared
    assert shape(first) == shape(second)
    assert first.output == session.execution.output


def _regions_and_forest(module):
    function = module.function("main")
    regions = [
        as_region(recipe) for recipe in recipes_from_annotations(function)
    ]
    forest = {"main": {
        loop.header.name: loop for loop in find_natural_loops(function)
    }}
    return regions, forest


def _run(module, regions, forest):
    return run_parallel(
        module, regions, workers=3, backend="threads", forest=forest
    )


@pytest.mark.parametrize("mutation", ["chunk", "reduction", "private"])
def test_a_recipe_mutated_between_runs_dispatches_as_mutated(mutation):
    module = compile_source(UNEVEN)
    regions, forest = _regions_and_forest(module)
    before = _run(module, regions, forest)
    prepared = regions[0].prepared
    assert _run(module, regions, forest).output == before.output
    assert regions[0].prepared is prepared  # reused while unchanged

    fresh_module = compile_source(UNEVEN)
    fresh_regions, fresh_forest = _regions_and_forest(fresh_module)
    for owner, recipe in (
        (module, regions[0].recipes[0]),
        (fresh_module, fresh_regions[0].recipes[0]),
    ):
        if mutation == "chunk":
            recipe.chunk = 5
        elif mutation == "reduction":
            storage, _op = recipe.reductions[0]
            recipe.reductions[0] = (storage, "max")  # the same list
        else:  # ``out`` private, never written back: it stays 0
            recipe.privatized.append(owner.globals["out"])
    after = _run(module, regions, forest)
    expected = _run(fresh_module, fresh_regions, fresh_forest)
    assert shape(after) == shape(expected)
    assert shape(after) != shape(before)


def test_another_forest_prepares_anew():
    module = compile_source(UNEVEN)
    regions, forest = _regions_and_forest(module)
    first = _run(module, regions, forest)
    prepared = regions[0].prepared
    _other_regions, other = _regions_and_forest(module)
    again = _run(module, regions, other)
    assert regions[0].prepared is not prepared
    assert regions[0].prepared.loops == [other["main"][regions[0].header]]
    assert regions[0].prepared.loops[0] is other["main"][regions[0].header]
    assert shape(again) == shape(first)


def test_a_new_source_text_runs_the_new_program():
    session = Session.from_source(UNEVEN, name="uneven")
    session.run(backend="threads", workers=2)
    changed = UNEVEN.replace("0..48", "0..40").replace("out[47]", "out[39]")
    session.source = changed
    fresh = Session.from_source(changed, name="uneven")
    options = {"backend": "threads", "workers": 2}
    assert shape(session.run(**options)) == shape(fresh.run(**options))
    assert shape(session.run("PS-PDG", **options)) == shape(
        fresh.run("PS-PDG", **options)
    )


def test_reconfigure_and_invalidate_rekey_the_next_run():
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
    session.invalidate()
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
        assert fresh.calibration.observed  # loaded from run 1's save
        second = session.run("PS-PDG")
        expected = fresh.run("PS-PDG")
    finally:
        backends._reset_chunk_pool()
    assert shape(second) == shape(expected)
    assert [region["backend"] for region in second.parallel_regions] != [
        region["backend"] for region in first.parallel_regions
    ]
