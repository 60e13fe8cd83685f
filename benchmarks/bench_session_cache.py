"""Session cache: cold vs warm planning on the same session.

The hot path of every benchmark in this directory is "plan the same
workload again".  Before :class:`repro.Session`, each call re-ran
interpretation, alias analysis, and both graph builds; now the first
``plan()`` materializes the pipeline and every later query is a cache
hit.  This bench quantifies the gap and asserts the API's core promise:
a warm ``plan()`` performs **zero** interpreter/PDG/PS-PDG rebuilds and
is at least 5x faster than the cold one (in practice it is orders of
magnitude).
"""

import time

import pytest

from repro import Session
from repro.workloads import kernel_names

_GRAPH_STAGES = (
    "module", "profile", "alias", "pdg", "loops", "pspdg", "views",
)


@pytest.mark.parametrize("name", kernel_names())
def test_warm_plan_hits_cache(name, capsys):
    session = Session.from_kernel(name)

    started = time.perf_counter()
    cold_plan = session.plan()
    cold = time.perf_counter() - started

    started = time.perf_counter()
    warm_plan = session.plan()
    warm = time.perf_counter() - started

    with capsys.disabled():
        ratio = cold / warm if warm else float("inf")
        print(
            f"\n[session cache] {name:4} cold={cold * 1e3:9.2f}ms "
            f"warm={warm * 1e6:8.1f}us speedup={ratio:10.0f}x"
        )

    assert warm_plan is cold_plan
    # Zero rebuilds on the warm path: every stage ran exactly once.
    for stage in _GRAPH_STAGES:
        assert session.diagnostics.runs(stage) == 1, stage
    assert session.diagnostics.runs("critical_paths") == 1
    # The acceptance bar is 5x; real ratios are 1000x+.
    assert cold >= 5 * warm, (cold, warm)


def test_warm_options_hit_cache(capsys):
    session = Session.from_kernel("IS")

    started = time.perf_counter()
    first = session.options()
    cold = time.perf_counter() - started

    started = time.perf_counter()
    second = session.options()
    warm = time.perf_counter() - started

    with capsys.disabled():
        print(
            f"\n[session cache] IS options cold={cold * 1e3:.2f}ms "
            f"warm={warm * 1e6:.1f}us"
        )
    assert second is first
    assert session.diagnostics.runs("options") == 1
    assert cold >= 5 * warm, (cold, warm)
