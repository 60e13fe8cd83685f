"""A run dispatches every region exactly as it was planned.

The contract under test: a region's backend is decided when the plan is
priced — the configured backend, or ``threads`` for a region whose recipe
carries the small-region override on ``processes`` — and nothing a run
measures moves it.  A session's later run dispatches what its first did
and what a fresh session with the same config dispatches; regions the
optimizer priced ``sequential`` never reach the runtime at all (the base
interpreter runs those loops).

On a GIL build a plan priced for ``threads`` at ``-O1`` and up keeps
only the regions dispatch cannot slow by much (FT's largest, among the
NAS kernels), so the records priced for overlapping workers also run on
``threads`` through ``run_parallel``: those still dispatch regions.
"""

import pytest

from repro import Session
from repro.planner.plans import OVERRIDE_SEQUENTIAL, OVERRIDE_THREADS
from repro.runtime.executor import run_parallel
from repro.workloads import kernel_names
from support.conformance import MISCALIBRATED


def dispatched(result):
    return [(r.header, r.backend) for r in result.parallel_regions]


def planned_backends(backend, recipe):
    """The backend labels a dispatch of ``recipe`` may carry."""
    if backend != "processes":
        return {backend}
    if recipe.backend_override == OVERRIDE_THREADS:
        return {"processes->threads(small-region)"}
    # A critical/atomic body needs shared locks: the processes backend
    # runs it on threads itself, whatever the plan said.
    return {"processes", "processes->threads(critical)"}


def on_threads(session):
    """The session's records run on ``threads``, whatever the session
    priced them for."""
    config = session.config
    return run_parallel(
        session.module, session.region_recipes["PS-PDG"],
        config.function_name, workers=4, backend="threads",
        analyses=session.analyses,
    )


def assert_dispatched_as_planned(result, planned, backend):
    by_label = {recipe.label: recipe for recipe in planned}
    assert bool(result.parallel_regions) == bool(planned)
    for region in result.parallel_regions:
        assert region.header in by_label
        assert region.backend in planned_backends(
            backend, by_label[region.header]
        )


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("backend", ("simulated", "threads", "processes"))
@pytest.mark.parametrize("opt", (0, 2))
def test_kernels_dispatch_as_planned(kernel, backend, opt):
    session = Session.from_kernel(
        kernel, opt_level=opt, backend=backend, workers=4,
    )
    planned = session.region_recipes["PS-PDG"]
    assert_dispatched_as_planned(session.run("PS-PDG"), planned, backend)
    # The run rewrote nothing the session cached.
    assert session.region_recipes["PS-PDG"] is planned
    if backend == "threads" and opt:
        # The -O2 records priced for overlapping workers, fused ones
        # among them, dispatch on threads as planned too.
        session.reconfigure(backend="simulated")
        result = on_threads(session)
        assert result.parallel_regions
        assert_dispatched_as_planned(
            result, session.region_recipes["PS-PDG"], "threads"
        )


@pytest.mark.parametrize("kernel", kernel_names())
def test_a_used_session_dispatches_like_a_fresh_one(kernel):
    # The storm plan dispatches every legal region on processes, paying
    # wire costs the model called free: the divergence a run must not
    # act on between its own dispatches or carry into the next run.
    def session():
        return Session.from_kernel(
            kernel, opt_level=2, backend="processes", workers=4,
            machine=MISCALIBRATED,
        )

    used = session()
    first = used.run("PS-PDG")
    second = used.run("PS-PDG")
    fresh = session().run("PS-PDG")
    assert dispatched(second) == dispatched(first) == dispatched(fresh)
    assert second.formatted_output() == fresh.formatted_output()


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("opt", (1, 2, 3))
def test_sequential_regions_never_reach_the_runtime(kernel, opt):
    session = Session.from_kernel(kernel, opt_level=opt, workers=4)
    for priced_for in ("threads", "simulated"):
        session.reconfigure(backend=priced_for)
        serialized = {
            "+".join(descriptor.headers)
            for descriptor in session.optimized_plan().regions
            if descriptor.backend_override == OVERRIDE_SEQUENTIAL
        }
        planned = session.region_recipes["PS-PDG"]
        assert all(
            recipe.backend_override in (None, OVERRIDE_THREADS)
            for recipe in planned
        )
        assert not serialized & {recipe.label for recipe in planned}
        result = on_threads(session)
        assert not serialized & {r.header for r in result.parallel_regions}
    # Priced for overlapping workers, the plan still dispatches.
    assert result.parallel_regions
