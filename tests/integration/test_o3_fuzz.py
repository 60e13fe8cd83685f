"""-O3 vs -O0 differential fuzzing over generated nest programs.

Seeded nest-heavy programs (tests/support/progen's
``generate_nest_program``) run through the full ``-O3`` pipeline — the
three nest shapes exercise a proven interchange, a proven carried
dependence, and a pair the static test cannot decide (rejected too) —
and every optimized plan must reproduce both the sequential output and
the unoptimized ``-O0`` plan's output on a real backend.  A failing seed
reproduces with ``generate_nest_program(seed)`` alone.
"""

import pytest

from repro.opt import OptLevel, optimize_plan
from repro.planner.plans import loop_uid_map, openmp_source_plan
from repro.runtime import run_plan
from repro.session import Session
from support.conformance import outputs_close
from support.progen import generate_nest_program

CASES = 40


def _optimized(session, level):
    plan = openmp_source_plan(
        session.function, loop_uid_map(session.loops)
    )
    return optimize_plan(session.pspdg, plan, level)


@pytest.mark.parametrize("chunk", range(0, CASES, 10))
def test_o3_matches_o0_on_generated_nests(chunk):
    for seed in range(chunk, min(chunk + 10, CASES)):
        source = generate_nest_program(seed)
        session = Session.from_source(source, name=f"nest-{seed}")
        expected = session.execution.output
        o0 = _optimized(session, OptLevel.O0)
        o3 = _optimized(session, OptLevel.O3)
        backend = "threads" if seed % 2 else "processes"
        for label, plan in (("-O0", o0.plan), ("-O3", o3.plan)):
            result = run_plan(
                session.pspdg, plan,
                workers=3, seed=seed % 5, backend=backend,
            )
            assert outputs_close(result.output, expected), (
                f"seed={seed} {label} on {backend} diverged: "
                f"{result.output} != {expected}"
            )


def test_the_corpus_exercises_every_interchange_verdict():
    """The fuzz leg is not vacuous: across the pinned seeds the -O3
    pipeline must interchange the legal nests, reject the carried ones
    on a proof and the ``nonaffine`` ones as undecided — otherwise the
    corpus (or a legality predicate) has silently degenerated."""
    interchanged = carried = undecided = 0
    for seed in range(CASES):
        source = generate_nest_program(seed)
        session = Session.from_source(source, name=f"nest-{seed}")
        report = _optimized(session, OptLevel.O3).report
        interchanged += report.summary()["interchanged"]
        for _name, _subject, reason in report.rejections_for(
            "loop-interchange"
        ):
            carried += reason.startswith("dependence carried by ")
            undecided += reason.startswith("non-affine subscript leaves ")
    assert interchanged > 0, "no legal nest was interchanged"
    assert carried > 0, "no carried nest was rejected"
    assert undecided > 0, "no nonaffine nest was rejected as undecided"
