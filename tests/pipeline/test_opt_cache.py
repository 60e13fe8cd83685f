"""Cache behavior of the ``optimize``/``recipes`` stages across -O levels.

Changing ``OptLevel`` must miss exactly the two optimization stages and
reuse every cached artifact upstream (module/alias/PDG/PS-PDG): the
stage key covers ``opt_level`` (and the machine model's cost
thresholds), and the stage graph's dependency closure keeps the
expensive graph builds out of the re-keyed set.
"""

from repro import OptLevel, Session


def _runs(session, *stages):
    return {stage: session.diagnostics.runs(stage) for stage in stages}


GRAPH_STAGES = ("module", "alias", "pdg", "pspdg")
OPT_STAGES = ("optimize", "recipes")


def test_opt_level_change_misses_only_opt_stages():
    session = Session.from_kernel("CG")  # default -O0
    assert session.config.opt_level is OptLevel.O0
    _ = session.region_recipes
    assert _runs(session, *GRAPH_STAGES) == {s: 1 for s in GRAPH_STAGES}
    assert _runs(session, *OPT_STAGES) == {s: 1 for s in OPT_STAGES}

    session.reconfigure(opt_level=OptLevel.O2)
    _ = session.region_recipes
    assert _runs(session, *OPT_STAGES) == {s: 2 for s in OPT_STAGES}
    # The graphs were not rebuilt.
    assert _runs(session, *GRAPH_STAGES) == {s: 1 for s in GRAPH_STAGES}

    # Flipping back is a pure cache hit: nothing rebuilds.
    session.reconfigure(opt_level=0)
    _ = session.region_recipes
    assert _runs(session, *OPT_STAGES) == {s: 2 for s in OPT_STAGES}


def test_machine_model_change_rekeys_optimize():
    from repro.planner.machine import MachineModel

    session = Session.from_kernel("LU", opt_level=2)
    _ = session.region_recipes
    session.reconfigure(machine=MachineModel(serial_region_cost=10**9,
                                             threads_region_cost=10**9))
    _ = session.region_recipes
    assert session.diagnostics.runs("optimize") == 2
    assert session.diagnostics.runs("pspdg") == 1
    # With everything below the serial threshold nothing is dispatched.
    assert session.region_recipes["PS-PDG"] == ()


def test_levels_change_region_structure_not_results():
    session = Session.from_kernel("CG", opt_level=0)
    o0 = session.run("PS-PDG", workers=4)
    session.reconfigure(opt_level=2)
    o2 = session.run("PS-PDG", workers=4)
    assert o0.output == o2.output
    plan = session.optimized_plan("PS-PDG")
    assert any(len(region.headers) > 1 for region in plan.regions)


def test_explicit_opt_override_bypasses_caches():
    session = Session.from_kernel("IS")  # -O0 config
    _ = session.region_recipes
    runs_before = session.diagnostics.runs("optimize")
    result = session.run("PS-PDG", workers=2, opt=2)
    assert result.output == session.run("PS-PDG", workers=2).output
    # The on-the-fly -O2 run did not rebuild the cached stage.
    assert session.diagnostics.runs("optimize") == runs_before


def test_opt_level_spellings_normalize():
    base = Session.from_kernel("EP").config
    derived = base.derive(opt_level="O2")
    assert derived.opt_level is OptLevel.O2
    assert derived != base
    assert base.derive(opt_level="-O2") == base.derive(opt_level=2)


def test_optimization_accessors_raise_on_unknown_abstraction():
    import pytest

    session = Session.from_kernel("EP")
    with pytest.raises(KeyError):
        session.optimization("nope")
