"""-O3 vs -O0 differential fuzzing over generated nest programs.

Seeded nest-heavy programs (tests/support/progen's
``generate_nest_program``) run through the full ``-O3`` pipeline, and
every optimized plan must reproduce both the sequential output and the
unoptimized ``-O0`` plan's output on a real backend.  ``-O3`` re-fits no
nest: it serializes every region of this corpus (69 of 69, the inner
loops of its 58 nests among them), exactly as ``-O2`` does, so the
parallel side of the differential is the ``-O0`` plan, which dispatches
on every seed.  A failing seed reproduces with
``generate_nest_program(seed)`` alone.
"""

import pytest

from repro.opt import OptLevel, price_plan, restructure_plan
from repro.planner.plans import loop_uid_map, openmp_source_plan
from repro.session import Session
from support.conformance import outputs_close
from support.plans import run_plan
from support.progen import generate_nest_program

CASES = 40


def _optimized(session, level):
    plan = openmp_source_plan(
        session.function, loop_uid_map(session.loops)
    )
    return price_plan(
        session.pspdg, restructure_plan(session.pspdg, plan, level)
    )


@pytest.mark.parametrize("chunk", range(0, CASES, 10))
def test_o3_matches_o0_on_generated_nests(chunk):
    for seed in range(chunk, min(chunk + 10, CASES)):
        source = generate_nest_program(seed)
        session = Session.from_source(source, name=f"nest-{seed}")
        expected = session.execution.output
        o0 = _optimized(session, OptLevel.O0)
        o3 = _optimized(session, OptLevel.O3)
        backend = _backend(seed)
        for label, plan in (("-O0", o0.plan), ("-O3", o3.plan)):
            result = run_plan(
                session.pspdg, plan,
                workers=3, seed=seed % 5, backend=backend,
            )
            assert outputs_close(result.output, expected), (
                f"seed={seed} {label} on {backend} diverged: "
                f"{result.output} != {expected}"
            )


def _backend(seed):
    return "threads" if seed % 2 else "processes"


def test_every_seed_dispatches_at_o0():
    """The fuzz leg is not vacuous: at ``-O0`` every seed dispatches at
    least one region on the backend that seed runs on."""
    for seed in range(CASES):
        source = generate_nest_program(seed)
        session = Session.from_source(source, name=f"nest-{seed}")
        backend = _backend(seed)
        result = run_plan(
            session.pspdg, _optimized(session, OptLevel.O0).plan,
            workers=3, seed=seed % 5, backend=backend,
        )
        assert any(
            region["backend"] == backend
            for region in result.parallel_regions
        ), f"seed={seed} dispatched nothing on {backend}"
