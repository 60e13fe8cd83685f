"""Plans are priced for the backend that runs them.

Where workers' compute does not overlap (``threads`` on a GIL build) a
dispatch divides nothing, so a region whose cost is at most
``GIL_DISPATCH_FACTOR`` times the dispatch cost runs in place.  The GIL
is pinned on here, so the plans are the same on a free-threaded build.
"""

import sys

import pytest

from repro import Session
from repro.opt.serialize import GIL_DISPATCH_FACTOR
from repro.planner.machine import DEFAULT_MACHINE, compute_overlaps
from repro.planner.plans import OVERRIDE_SEQUENTIAL
from repro.workloads import kernel_names
from support.conformance import outputs_close
from support.programs import dense_source


@pytest.fixture
def gil(monkeypatch):
    monkeypatch.setattr(sys, "_is_gil_enabled", lambda: True, raising=False)


def kept(session):
    """Labels of the PS-PDG plan's regions that still dispatch."""
    return [
        region.label for region in session.optimized_plan().regions
        if region.backend_override != OVERRIDE_SEQUENTIAL
    ]


def test_only_threads_under_a_gil_does_not_overlap(monkeypatch):
    monkeypatch.delattr(sys, "_is_gil_enabled", raising=False)
    assert not compute_overlaps("threads")
    for gil_enabled in (True, False):
        monkeypatch.setattr(
            sys, "_is_gil_enabled", lambda: gil_enabled, raising=False
        )
        assert compute_overlaps("threads") is not gil_enabled
        for backend in ("simulated", "processes", None):
            assert compute_overlaps(backend)


#: The PS-PDG ``-O2`` regions a threads plan keeps: the largest NAS
#: region, and every dense96 one.
KEPT_ON_THREADS = {"FT": ["for.header.3"], "dense96": [
    "for.header", "for.header.3", "for.header.5+for.header.7",
]}


@pytest.mark.parametrize("name", [*kernel_names(), "dense96"])
def test_threads_plans_keep_only_the_regions_dispatch_cannot_slow(
        name, gil):
    if name.startswith("dense"):
        session = Session.from_source(
            dense_source(96), name=name, opt_level=2, backend="threads"
        )
    else:
        session = Session.from_kernel(name, opt_level=2, backend="threads")
    assert kept(session) == KEPT_ON_THREADS.get(name, [])
    bar = GIL_DISPATCH_FACTOR * DEFAULT_MACHINE.threads_region_cost
    for label, cost, override in session.optimization().report.serialized:
        assert override == OVERRIDE_SEQUENTIAL and cost <= bar, label
    # The runtime dispatches exactly what the plan kept.
    assert {
        record.label for record in session.region_recipes["PS-PDG"]
    } == set(KEPT_ON_THREADS.get(name, []))


def test_a_run_on_threads_is_priced_and_staged_for_threads(gil):
    """A simulated-config session's threads run dispatches the
    threads-priced records; a second run builds no stage, and the
    session's own records stay the ones priced for its config."""
    session = Session.from_kernel("FT", opt_level=2)
    recipes = session.region_recipes
    assert len(recipes["PS-PDG"]) == 3
    result = session.run("PS-PDG", backend="threads", workers=2)
    assert {r.header for r in result.parallel_regions} == {"for.header.3"}
    assert result.output == session.execution.output
    runs = {stage: session.diagnostics.runs(stage)
            for stage in ("restructure", "optimize", "recipes")}
    assert runs == {"restructure": 1, "optimize": 2, "recipes": 2}
    again = session.run("PS-PDG", backend="threads", workers=2)
    assert again.output == result.output
    assert {stage: session.diagnostics.runs(stage) for stage in runs} == runs
    assert session.region_recipes is recipes
    # An explicit plan is priced for the run's backend too.
    explicit = session.run(session.plan(), backend="threads", workers=2)
    assert {r.header for r in explicit.parallel_regions} == {"for.header.3"}


def test_a_run_on_a_backend_that_prices_alike_builds_no_stage():
    """``processes`` overlaps as ``simulated`` does, and pricing reads a
    backend only as that answer: a simulated session's processes run
    dispatches the session's own records, and its memo holds one entry
    per pricing, not per backend name."""
    session = Session.from_kernel("LU", opt_level=2)
    recipes = session.region_recipes
    session.compiled_regions
    stages = ("restructure", "optimize", "recipes", "compile_regions")
    built = {stage: session.diagnostics.runs(stage) for stage in stages}
    assert set(built.values()) == {1}
    result = session.run("PS-PDG", backend="processes", workers=2)
    assert outputs_close(result.output, session.execution.output)
    assert {stage: session.diagnostics.runs(stage) for stage in stages} == \
        built
    session.run("PS-PDG", backend="simulated", workers=2)
    assert len(session._run_configs) == 1
    # The stage keys hold the answer too: a reconfigured backend that
    # prices alike re-keys nothing.
    session.reconfigure(backend="processes")
    assert session.region_recipes is recipes
