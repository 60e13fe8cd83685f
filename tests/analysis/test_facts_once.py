"""Set-up builds each per-function fact once per session.

The successor map, the dominator tree, the loop forest, the single-store
scan and the operand-use scan of a function are built by its analysis
record and read from it by liveness, memdep, alias, every codegen
lowering (chunks, sequences, profiles) and the runtime.  Over an
``-O3`` compile of each NAS kernel, in the benchmark's stage order, and
one ``threads`` run of its plan, no builder runs twice for a function.
"""

import collections
import gc
import sys

import pytest

from repro import Session
from repro.analysis import affine, cfg, dominators, loops
from repro.workloads import kernel_names

BUILDERS = (
    cfg.successors_map,
    cfg.operand_users,
    dominators.compute_dominator_tree,
    loops.find_natural_loops,
    affine.single_stores,
)


@pytest.fixture
def builds(monkeypatch):
    """``(builder name, function name) -> calls``, through every
    ``repro`` module that binds a builder's name."""
    counts = collections.Counter()

    def counted(real):
        def spy(subject, *args):
            function = getattr(subject, "function", subject)  # a record
            counts[real.__name__, function.name] += 1
            return real(subject, *args)

        return spy

    for real in BUILDERS:
        spy = counted(real)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, real.__name__, None) is real
            ):
                monkeypatch.setattr(module, real.__name__, spy)
    return counts


@pytest.mark.parametrize("kernel", kernel_names())
def test_each_fact_is_built_once_per_function_and_session(kernel, builds):
    gc.collect()
    gc.disable()  # no finalizer of an earlier test's garbage runs here
    try:
        session = Session.from_kernel(kernel, opt_level=3)
        # The benchmark's stage order (benchmarks/e2e/workloads.py).
        session.module, session.execution, session.alias, session.loops
        session.pdg, session.pspdg, session.views
        session.critical_paths(), session.options()
        session.optimizations, session.region_recipes
        session.compiled_regions
        result = session.run("PS-PDG", backend="threads", workers=2)
    finally:
        gc.enable()
    assert result.output == session.execution.output
    assert set(builds.values()) == {1}, builds
    # Each is built for the entry function; the single-store scan only
    # once a load of a local asks what it forwards to.
    assert {
        builder for builder, name in builds if name == session.function.name
    } >= {real.__name__ for real in BUILDERS} - {"single_stores"}
