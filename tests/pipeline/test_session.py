"""The Session API: lazy stages, exactly-once caching, re-keying, CLI."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Session, SessionConfig
from repro.planner import MachineModel
from repro.planner.classify import classify_loop
from repro.planner.plans import ProgramPlan
from repro.runtime.executor import ParallelInterpreter
from repro.util.regionstats import RegionStats, region_feedback

SOURCE = """
global data: int[64];
global hist: int[8];

func main() {
  for s in 0..64 {
    data[s] = (s * 13 + 3) % 41;
  }
  var total: int = 0;
  pragma omp parallel_for reduction(+: total)
  for i in 0..64 {
    total = total + data[i];
  }
  print("total", total);
}
"""


GRAPH_STAGES = (
    "module", "profile", "alias", "pdg", "loops", "pspdg", "views",
)


@pytest.fixture
def session():
    return Session.from_source(SOURCE, name="t")


# -- laziness -----------------------------------------------------------------


def test_construction_runs_nothing(session):
    assert session.diagnostics.records() == []
    assert session.diagnostics.runs("module") == 0


def test_module_access_builds_only_the_frontend(session):
    session.module
    assert session.diagnostics.runs("module") == 1
    for stage in ("profile", "pdg", "pspdg", "views"):
        assert session.diagnostics.runs(stage) == 0, stage


def test_pspdg_pulls_upstream_stages_not_profile(session):
    session.pspdg
    for stage in ("module", "alias", "pdg", "pspdg"):
        assert session.diagnostics.runs(stage) == 1, stage
    # The PS-PDG does not need the interpreter.
    assert session.diagnostics.runs("profile") == 0


# -- exactly-once memoization -------------------------------------------------


def test_every_stage_runs_exactly_once(session):
    for _ in range(3):
        session.plan()
        session.options()
        session.critical_paths()
    for stage in GRAPH_STAGES:
        assert session.diagnostics.runs(stage) == 1, stage
    assert session.diagnostics.runs("options") == 1
    assert session.diagnostics.runs("critical_paths") == 1
    (record,) = [
        r for r in session.diagnostics.records()
        if r.stage == "critical_paths"
    ]
    assert record.hits > 0


def _spy_on_classification(monkeypatch):
    """Record the memo key of every loop actually classified."""
    from repro.planner import classify

    classified = []
    real = classify._classify

    def spy(view, loop, serialized):
        classified.append(_memo_key(view, loop))
        return real(view, loop, serialized)

    monkeypatch.setattr(classify, "_classify", spy)
    return classified


def _memo_key(view, loop):
    return (
        loop.header.name, view.relaxing(loop), view.serialized_uids(loop)
    )


def test_options_reuse_the_planners_classifications(session, monkeypatch):
    classified = _spy_on_classification(monkeypatch)
    session.plan()
    views = list(session.views.values())
    memo = views[0].index.classifications
    assert all(view.index.classifications is memo for view in views)
    # Both loops are outermost, so every view's planner saw both: the
    # memo holds the graph of each of the 2 x 3, each classified once,
    # and at least one is shared (the first loop relaxes nothing).
    assert len(session.loops) == 2
    assert set(memo) == {
        _memo_key(view, loop) for view in views for loop in session.loops
    }
    assert len(classified) == len(set(classified)) == len(memo)
    assert len(memo) < 2 * len(views)
    planned = dict(memo)
    session.options()
    assert len(classified) == len(memo)
    for view in views:
        for loop in session.loops:
            assert classify_loop(view, loop) is planned[_memo_key(view, loop)]


def test_no_loop_is_classified_twice_under_one_view(monkeypatch):
    classified = _spy_on_classification(monkeypatch)
    session = Session.from_kernel("MG")
    session.plan()
    planned = set(classified)
    session.options()
    # No graph is classified twice, whichever views share it.
    assert len(classified) == len(set(classified))
    # What options() adds is exactly what planning never looked at: the
    # nested loops under the views that plan outermost loops only, where
    # their graph is not the one the PS-PDG (which plans every loop)
    # already classified.
    added = set(classified) - planned
    depth = {loop.header.name: loop.depth for loop in session.loops}
    pspdg = session.views["PS-PDG"]
    pspdg_keys = {_memo_key(pspdg, loop) for loop in session.loops}
    assert added and all(depth[header] > 0 for header, _, _ in added)
    assert not added & pspdg_keys


def _spy_on_function(monkeypatch, real):
    """Record the calling module of every call to ``real``, through every
    ``repro`` module that binds its name."""
    callers = []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, real.__name__, None) is real
        ):
            monkeypatch.setattr(module, real.__name__, spy)
    return callers


def _spy_on_method(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize("kernel", ("IS", "SP", "LU"))
def test_each_analysis_is_computed_once_per_session(kernel, monkeypatch):
    from repro.analysis import alias, loops, memdep

    aliases = _spy_on_method(monkeypatch, alias.AliasAnalysis, "__init__")
    memdeps = _spy_on_method(
        monkeypatch, memdep.MemoryDependenceAnalysis, "run"
    )
    accesses = _spy_on_function(monkeypatch, memdep.collect_accesses)
    loop_finds = _spy_on_function(monkeypatch, loops.find_natural_loops)

    session = Session.from_kernel(kernel, opt_level=3)
    # The benchmark's stage order (benchmarks/e2e/workloads.py).
    session.module, session.execution, session.alias, session.loops
    session.pdg, session.pspdg, session.views
    session.critical_paths(), session.options()
    session.optimizations, session.region_recipes, session.compiled_regions

    assert len(aliases) == 1
    assert len(accesses) == 1
    assert len(memdeps) == 1
    # The forest is the Session's: the record found it once, and every
    # ``Session.run`` is handed it, whatever the backend (one find per
    # run owner while the runtime looked loops up for itself).
    assert loop_finds == ["repro.analysis.record"]
    # The plan priced for overlapping workers: on a GIL build the one
    # priced for threads runs these kernels' regions in place.
    plan = session.optimized_plan()
    for backend in ("threads", "threads", "simulated"):
        result = session.run(plan, workers=2, backend=backend)
        assert result.parallel_regions
    assert loop_finds == ["repro.analysis.record"]


def test_every_consumer_holds_the_sessions_own_loops():
    session = Session.from_kernel("MG", opt_level=2)
    own = {id(loop) for loop in session.loops}
    assert len(own) == len(session.loops)

    carried = [
        loop for edge in session.pdg.edges for loop in edge.carried_loops
    ]
    assert carried and all(id(loop) in own for loop in carried)
    assert session.pspdg.pdg is session.pdg
    assert session.pdg.analyses is session.analyses
    # The loops the PS-PDG hierarchy was built from.
    assert all(id(loop) in own for loop in session.pspdg.pdg.analyses.loops)
    assert set(session.pspdg.context_of_loop) == {
        loop.header.name for loop in session.loops
    }
    session.options()
    classified = [
        classification.loop
        for classification in session.views[
            "PS-PDG"
        ].index.classifications.values()
    ]
    assert classified and all(id(loop) in own for loop in classified)

    # The loops a backend is handed with a region.
    from repro.runtime.backends import SerialBackend

    dispatched = []

    class Spy(SerialBackend):
        def run_region(self, interp, prepared, frame, workers, stats):
            dispatched.extend(prepared.loops)
            super().run_region(interp, prepared, frame, workers, stats)

    result = session.run("PS-PDG", workers=2, backend=Spy())
    assert result.formatted_output() == session.execution.formatted_output()
    assert dispatched and all(id(loop) in own for loop in dispatched)


def test_a_record_of_another_modules_function_is_rejected():
    from repro.runtime import run_parallel
    from repro.util.errors import PlanError

    session = Session.from_kernel("EP")
    other = Session.from_kernel("EP")
    assert other.module is not session.module
    analyses = session.analyses
    expected = session.execution.formatted_output()
    assert run_parallel(
        session.module, session.region_recipes["PS-PDG"], analyses=analyses
    ).formatted_output() == expected
    # Same headers, same shapes, but not this module's blocks: refused
    # before anything runs, not a wrong answer later.
    with pytest.raises(PlanError, match="record handed in for @main"):
        run_parallel(
            other.module, other.region_recipes["PS-PDG"], analyses=analyses
        )


def test_repeated_queries_return_identical_artifacts(session):
    assert session.plan() is session.plan()
    assert session.options() is session.options()
    assert session.pspdg is session.pspdg


def test_plan_is_a_program_plan(session):
    plan = session.plan()
    assert isinstance(plan, ProgramPlan)
    assert session.plan("OpenMP").name == "OpenMP"
    with pytest.raises(KeyError):
        session.plan("no-such-abstraction")


# -- config-driven behavior ---------------------------------------------------


def test_machine_override_changes_options_not_graphs(session):
    small = session.options(MachineModel(cores=4, chunk_sizes=(1,)))
    large = session.options(MachineModel(cores=8, chunk_sizes=(1,)))
    assert small.totals["PS-PDG"] * 2 == large.totals["PS-PDG"]
    assert session.diagnostics.runs("options") == 2
    assert session.diagnostics.runs("pspdg") == 1


def test_config_machine_flows_into_options():
    machine = MachineModel(cores=3, chunk_sizes=(1,))
    session = Session.from_source(SOURCE, name="t", machine=machine)
    # One DOALL loop candidate parallelized by the programmer: the
    # annotated loop contributes cores x chunks options.
    assert session.options().totals["OpenMP"] == 3


def test_reconfigure_keeps_expensive_stages_cached(session):
    session.plan()
    session.reconfigure(machine=MachineModel(cores=2, chunk_sizes=(1,)))
    session.options()
    assert session.diagnostics.runs("pspdg") == 1
    assert session.diagnostics.runs("profile") == 1


def test_rename_rekeys_downstream_stages(session):
    # Changing the session name re-keys the module stage; every
    # downstream artifact must follow it — no mixed-module state.
    session.pspdg
    session.reconfigure(name="renamed")
    sequential = session.execution.formatted_output()
    result = session.run(session.plan())
    assert result.formatted_output() == sequential
    assert session.diagnostics.runs("pspdg") == 2


def test_explicit_config_name_is_respected():
    config = SessionConfig(name="explicit")
    session = Session.from_source(SOURCE, config=config)
    assert session.config.name == "explicit"
    # A direct name= argument still wins over the config.
    named = Session.from_source(SOURCE, name="direct", config=config)
    assert named.config.name == "direct"
    kernel = Session.from_kernel("EP", config=config)
    assert kernel.config.name == "explicit"


def test_abstraction_subset(session):
    session.reconfigure(abstractions=("PS-PDG",))
    assert set(session.views) == {"PS-PDG"}
    results = session.critical_paths()
    assert "PS-PDG" in results and "PDG" not in results


def test_unknown_abstraction_rejected():
    with pytest.raises(ValueError):
        SessionConfig(abstractions=("PDG", "bogus"))


def test_a_bare_string_abstractions_is_rejected_by_name():
    """It used to be read as its letters: unknown ['D', 'G', 'P']."""
    with pytest.raises(ValueError, match="abstractions must be a sequence"):
        SessionConfig(abstractions="PDG")


def test_list_options_plan_and_enumerate_as_their_tuples():
    """A list ``abstractions`` or ``chunk_sizes`` is taken as its tuple
    (both sit in the stage memo keys)."""
    names = ["PDG", "PS-PDG"]
    listed = Session.from_source(
        SOURCE, name="t", abstractions=names,
        machine=MachineModel(cores=4, chunk_sizes=[1, 2]),
    )
    tupled = Session.from_source(
        SOURCE, name="t", abstractions=tuple(names),
        machine=MachineModel(cores=4, chunk_sizes=(1, 2)),
    )
    assert listed.options().totals == tupled.options().totals
    wider = MachineModel(cores=8, chunk_sizes=[1, 4])
    assert (
        listed.options(wider).totals
        == tupled.options(MachineModel(cores=8, chunk_sizes=(1, 4))).totals
    )
    for name in names:
        assert listed.plan(name).describe() == tupled.plan(name).describe()
    assert listed.config == tupled.config


@pytest.mark.parametrize("machine", [None, "default", {"cores": 8}])
def test_a_machine_that_is_no_machine_model_is_rejected(machine):
    """``machine=None`` used to pass and crash the first plan with an
    ``AttributeError`` on ``.cores``."""
    with pytest.raises(ValueError, match="machine must be a MachineModel"):
        SessionConfig(machine=machine)
    with pytest.raises(ValueError, match="machine must be a MachineModel"):
        Session.from_kernel("EP", machine=machine)


def test_a_profile_path_that_names_a_directory_is_rejected(tmp_path):
    """It used to pass: the first calibrated run completed, then its
    save raised ``IsADirectoryError`` and the run's result was lost."""
    with pytest.raises(ValueError, match="profile_path"):
        SessionConfig(profile_path=str(tmp_path))
    with pytest.raises(ValueError, match="profile_path"):
        Session.from_kernel("EP", calibrate=True, profile_path=tmp_path)
    profile = tmp_path / "profile.json"  # not there yet: created on save
    assert SessionConfig(profile_path=str(profile)).profile_path == \
        str(profile)


def test_config_is_immutable(session):
    with pytest.raises(Exception):
        session.config.name = "other"


# -- constructors -------------------------------------------------------------


def test_from_module_and_from_kernel():
    kernel_session = Session.from_kernel("EP")
    assert kernel_session.config.name == "EP"
    module_session = Session.from_module(kernel_session.module, name="EP2")
    assert module_session.options().totals["PS-PDG"] > 0


def test_requires_exactly_one_program_origin():
    with pytest.raises(ValueError):
        Session()
    with pytest.raises(ValueError):
        Session(source=SOURCE, module=object())


# -- execution ----------------------------------------------------------------


def test_run_plan_matches_sequential(session):
    sequential = session.execution.formatted_output()
    for seed in (0, 1):
        result = session.run(session.plan(), seed=seed)
        assert result.formatted_output() == sequential
    assert session.run("source").formatted_output() == sequential


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_report_renders(session):
    session.plan()
    text = session.describe()
    for stage in ("module", "pdg", "pspdg", "critical_paths"):
        assert stage in text
    assert session.diagnostics.runs("pspdg") == 1
    assert session.diagnostics.stats("pspdg")["hierarchical_nodes"] > 0


def test_diagnostics_records_come_in_first_build_order(session):
    session.pspdg
    graph = ["module", "function", "analyses", "alias", "loops", "pdg",
             "pspdg"]
    assert [r.stage for r in session.diagnostics.records()] == graph
    session.module  # a hit adds no record
    session.plan()
    assert [r.stage for r in session.diagnostics.records()] == [
        *graph, "profile", "views", "critical_paths",
    ]


def test_region_feedback_aggregates_per_label():
    regions = [
        RegionStats(header="L1", payloads=4, payload_bytes=4000),
        RegionStats(header="L1", payloads=4, payload_bytes=400),
        RegionStats(header="L2", payloads=2, payload_bytes=600),
        RegionStats(header="seq", payloads=0),
    ]
    payload_bytes, speedup = region_feedback(regions)
    assert payload_bytes == {"L1": 4400 // 8, "L2": 300}
    assert "seq" not in payload_bytes
    assert speedup == {}  # no chunk-mode executions recorded


def test_region_feedback_measures_compiled_speedup():
    # Two interpreted runs at 1000 steps/s, one compiled at 4000.
    regions = [
        RegionStats(
            header="L1", seconds=1.0, interpreted_chunks=4,
            per_worker=[{"steps": 500}, {"steps": 500}],
        )
        for _ in range(2)
    ]
    regions.append(RegionStats(
        header="L1", seconds=0.5, compiled_chunks=4,
        per_worker=[{"steps": 1000}, {"steps": 1000}],
    ))
    # Mixed executions are not attributable to either engine.
    regions.append(RegionStats(
        header="L2", seconds=1.0, compiled_chunks=2,
        interpreted_chunks=2, per_worker=[{"steps": 1000}],
    ))
    # Compiled-only regions have no interpreted baseline to compare to.
    regions.append(RegionStats(
        header="L3", seconds=1.0, compiled_chunks=2,
        per_worker=[{"steps": 1000}],
    ))
    _bytes, speedup = region_feedback(regions)
    assert speedup == {"L1": pytest.approx(4.0)}


# -- the CLI ------------------------------------------------------------------


def _run_cli(*argv):
    import os

    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    src = str(repo_root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=env,
    )


def test_cli_plan_on_example_source():
    proc = _run_cli("plan", "examples/histogram.mop")
    assert proc.returncode == 0, proc.stderr
    assert "PS-PDG" in proc.stdout
    assert "DOALL" in proc.stdout


def test_cli_run_verifies_against_sequential():
    proc = _run_cli(
        "run", "examples/histogram.mop", "--plan", "PS-PDG", "--verify"
    )
    assert proc.returncode == 0, proc.stderr
    assert "checksum" in proc.stdout
    assert "matches sequential" in proc.stderr


def test_cli_compile_and_report(tmp_path):
    proc = _run_cli("compile", "examples/histogram.mop", "--pspdg")
    assert proc.returncode == 0, proc.stderr
    assert "PS-PDG" in proc.stdout

    proc = _run_cli("report", "examples/histogram.mop", "EP")
    assert proc.returncode == 0, proc.stderr
    assert "Fig. 13" in proc.stdout
    assert "Fig. 14" in proc.stdout
    assert "EP" in proc.stdout


def test_cli_knobs_lists_the_registry():
    from repro.runtime import knobs

    proc = _run_cli("knobs")
    assert proc.returncode == 0, proc.stderr
    for name in knobs.snapshot():
        assert name in proc.stdout
    assert "(default '')" in proc.stdout  # REPRO_FAULTS
    assert len(proc.stdout.splitlines()) == 2
    markdown = _run_cli("knobs", "--markdown")
    assert markdown.returncode == 0, markdown.stderr
    assert markdown.stdout.strip() == knobs.markdown_table()


def test_cli_rejects_unknown_program():
    proc = _run_cli("plan", "no/such/file.mop")
    assert proc.returncode != 0
    assert "neither a source file nor a NAS kernel" in proc.stderr


# -- profile-guided calibration ------------------------------------------------


def test_calibrate_flow_persists_and_warms(tmp_path):
    """Run -> profile file -> warm session plans with measured numbers."""
    import json

    from repro.planner.machine import DEFAULT_MACHINE

    profile = str(tmp_path / "profile.json")
    cold = Session.from_kernel(
        "IS", opt_level=2, backend="processes", workers=2,
        calibrate=True, profile_path=profile,
    )
    assert cold.config.calibrate
    cold.run("PS-PDG")

    data = json.loads(Path(profile).read_text())
    assert data["machine"]  # measured coefficients landed on disk

    warm = Session.from_kernel(
        "IS", opt_level=2, backend="processes", workers=2,
        calibrate=True, profile_path=profile,
    )
    assert warm.calibration.measured_coefficients()
    calibrated = warm.calibrated
    assert calibrated["machine"] != DEFAULT_MACHINE
    assert calibrated["measured"]
    # The remembered per-region wire feedback is keyed by this program.
    assert calibrated["payload_bytes"]


def test_calibration_rekeys_optimize_stage():
    """A new observation re-prices plans without rebuilding the graphs."""
    session = Session.from_kernel(
        "IS", opt_level=2, backend="processes", workers=2, calibrate=True,
    )
    session.optimizations  # build once (no observations yet)
    assert session.diagnostics.runs("optimize") == 1
    pspdg_runs = session.diagnostics.runs("pspdg")

    session.run("PS-PDG")  # observes -> store.version moves
    assert session.calibration.measured_coefficients()
    session.optimizations  # re-keyed: rebuilds with measured numbers
    assert session.diagnostics.runs("optimize") >= 2
    assert session.diagnostics.runs("pspdg") == pspdg_runs


def test_repricing_that_moves_no_decision_rebuilds_nothing_below():
    """Below ``optimize`` the keys carry the priced decisions, not the
    store version: an observation that moves none keeps the recipes."""
    session = Session.from_kernel("IS", opt_level=2, calibrate=True)
    recipes = session.region_recipes
    compiled = session.compiled_regions
    session.calibration.version += 1  # what an accepted observation does
    assert session.region_recipes is recipes
    assert session.compiled_regions is compiled
    assert session.diagnostics.runs("optimize") == 2
    assert session.diagnostics.runs("restructure") == 1
    assert session.diagnostics.runs("recipes") == 1


def test_calibration_off_keeps_static_keys():
    session = Session.from_kernel("IS", opt_level=2, workers=2)
    assert not session.config.calibrate
    session.optimizations
    session.run("PS-PDG")
    session.optimizations
    assert session.diagnostics.runs("optimize") == 1
    assert session.calibrated["machine"] == session.config.machine


def test_program_keys_tell_the_workloads_apart():
    """Calibration feedback is keyed by the sha256 of the printed IR:
    NAS8, the Fig. 11 gallery and three dense programs (all three named
    alike) each get their own key."""
    from repro.workloads.nas import KERNELS
    from repro.workloads.necessity import PAIRS, build_pair_sessions
    from support.programs import dense_source

    sessions = [Session.from_kernel(name) for name in KERNELS]
    for pair in PAIRS:
        sessions += build_pair_sessions(pair).values()
    sessions += [Session.from_source(dense_source(n)) for n in (8, 48, 96)]
    keys = [session.program_key() for session in sessions]
    assert len(set(keys)) == len(keys) == 21
    assert sessions[0].program_key() is keys[0]


# -- one home per option ---------------------------------------------------------


def _overrides(session):
    regions = session.optimized_plan("PS-PDG").regions
    return {region.label: region.backend_override for region in regions}


def test_reconfigure_compile_regions_rekeys_optimize_only():
    """The engine a plan is priced for is a keyed input of ``optimize``:
    flipping it re-plans, and nothing upstream rebuilds."""
    session = Session.from_kernel("IS", opt_level=2)
    compiled = _overrides(session)
    assert "sequential" in compiled.values()
    session.reconfigure(compile_regions=False)
    interpreted = _overrides(session)
    assert "threads" in interpreted.values()
    assert "sequential" not in interpreted.values()
    assert session.diagnostics.runs("optimize") == 2
    assert session.diagnostics.runs("pspdg") == 1
    # ...and agrees with a fresh session configured that way from the start.
    fresh = Session.from_kernel("IS", opt_level=2, compile_regions=False)
    assert _overrides(fresh) == interpreted
    session.reconfigure(compile_regions=True)
    assert _overrides(session) == compiled
    assert session.diagnostics.runs("optimize") == 2  # first key: a hit


@pytest.mark.parametrize("kernel", ("BT", "CG", "EP", "FT", "IS", "LU",
                                    "MG", "SP"))
def test_an_opt_override_dispatches_what_the_config_level_does(
        kernel, monkeypatch):
    """``run(opt=L)`` and a run of an explicit ``ProgramPlan`` price the
    plan for the run's engine, exactly as an ``opt_level=L`` session
    does: the same regions, backend overrides and tiles, at every level
    and on both engines."""
    import repro.session

    dispatched = []

    def spy(module, regions, function_name, **options):
        dispatched.append([
            (region.label, region.backend_override, region.tile)
            for region in regions
        ])

    monkeypatch.setattr(repro.session, "run_parallel", spy)
    session = Session.from_kernel(kernel)
    plan = session.plan("PS-PDG")
    for compile_regions in (True, False):
        for level in (1, 2, 3):
            session.reconfigure(opt_level=0, compile_regions=compile_regions)
            session.run("PS-PDG", opt=level)
            session.run(plan, opt=level)
            session.reconfigure(opt_level=level)
            session.run("PS-PDG")
            override, explicit, configured = dispatched[-3:]
            where = f"{kernel} -O{level} compile_regions={compile_regions}"
            assert override == configured, where
            assert explicit == configured, where


@pytest.mark.parametrize("kernel", ("BT", "CG", "EP", "FT", "IS", "LU",
                                    "MG", "SP"))
def test_a_compile_regions_override_dispatches_what_the_config_engine_does(
        kernel, monkeypatch):
    """``run(compile_regions=X)`` at the config's own ``-O`` level prices
    the plan for X, as a session configured with X does: the same
    regions and backend overrides on both engines."""
    import repro.session

    dispatched = []

    def spy(module, regions, function_name, **options):
        dispatched.append([
            (region.label, region.backend_override) for region in regions
        ])

    monkeypatch.setattr(repro.session, "run_parallel", spy)
    for compile_regions in (True, False):
        session = Session.from_kernel(
            kernel, opt_level=2, compile_regions=not compile_regions
        )
        session.run("PS-PDG", compile_regions=compile_regions)
        session.reconfigure(compile_regions=compile_regions)
        session.run("PS-PDG")
        override, configured = dispatched[-2:]
        assert override == configured, (kernel, compile_regions)


def test_stage_builders_read_only_their_declared_params():
    """A builder gets its ``params`` as arguments and never touches
    ``session.config`` — so it can only read what its key hashes."""
    import ast
    import inspect

    from repro.pipeline import stages

    tree = ast.parse(Path(stages.__file__).read_text())
    config_reads = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "config"
    ]
    assert not config_reads, f"stages.py reads config at {config_reads}"
    fields = {field.name for field in dataclasses.fields(SessionConfig)}
    for stage in stages.STAGES.values():
        assert set(stage.params) <= fields, stage.name
        arguments = list(inspect.signature(stage.build).parameters)
        assert arguments == ["session", *stage.params], stage.name
        assert set(stage.params) <= set(stages.KEY_PLANS[stage.name][0])


def test_no_config_field_defers_to_the_environment():
    """Only ``chunk`` and ``profile_path`` may default to ``None``, and
    there it means "none", not "ask the environment"."""
    config = SessionConfig()
    nones = {
        field.name for field in dataclasses.fields(config)
        if getattr(config, field.name) is None
    }
    assert nones == {"chunk", "profile_path"}


@pytest.mark.parametrize("build", [
    lambda module: SessionConfig(retry_budget=1),
    lambda module: ParallelInterpreter(module, [], retry_budget=1),
    lambda module: ParallelInterpreter(module, [], quarantine=None),
], ids=["config-retry_budget", "interpreter-retry_budget",
        "interpreter-quarantine"])
def test_supervision_options_are_refused_not_ignored(session, build):
    """Supervision has no settings: a caller still passing one learns so
    at once instead of running with a silently different policy."""
    with pytest.raises(TypeError, match="retry_budget|quarantine"):
        build(session.module)


def test_cli_faults_flag_recovers_and_does_not_leak(capsys, monkeypatch):
    """``run --faults`` injects for that command only: a later in-process
    ``cli.main`` must not inherit the fault plan."""
    from repro import cli
    from repro.runtime import backends, knobs

    backends._reset_chunk_pool()
    monkeypatch.setattr(backends, "RETRY_BACKOFF", 0.01)
    try:
        status = cli.main([
            "run", "IS", "--plan", "PS-PDG", "--backend", "processes",
            "--faults", "crash:region=0:worker=0", "--verify",
            "--diagnostics",
        ])
    finally:
        backends._reset_chunk_pool()
    captured = capsys.readouterr()
    assert status == 0, captured.err
    assert "matches sequential" in captured.err
    table = captured.err.splitlines()
    columns = next(l for l in table if l.startswith("loop ")).split()
    faulted = next(l for l in table if l.startswith("for.header")).split()
    assert int(faulted[columns.index("flt")]) == 1  # the crash fired...
    assert int(faulted[columns.index("rtry")]) >= 1  # ...and was retried
    assert knobs.REPRO_FAULTS.value == ""


@pytest.mark.parametrize("backend", ("simulated", "threads", "processes"))
@pytest.mark.parametrize("spec", ("bogus", "crash:region=x"))
def test_cli_rejects_a_malformed_faults_spec_before_running(
        spec, backend, capsys, monkeypatch):
    """A spec that does not parse is an error on every backend, before
    anything runs — not ignored because no ``processes`` region fired."""
    from repro import cli
    from repro.runtime import knobs

    ran = []
    monkeypatch.setattr(cli, "_run", lambda args: ran.append(args) or 0)
    status = cli.main(["run", "EP", "--backend", backend, "--faults", spec])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert ran == []
    assert knobs.REPRO_FAULTS.value == ""


def test_cli_profile_subcommand(tmp_path):
    profile = tmp_path / "profile.json"
    proc = _run_cli("profile", "--profile", str(profile))
    assert proc.returncode == 0, proc.stderr
    assert "payload_cost_per_byte" in proc.stdout
    assert "(static)" in proc.stdout

    # Calibrate through the run subcommand, then print what landed.
    proc = _run_cli(
        "run", "IS", "--plan", "PS-PDG", "-O", "2",
        "--backend", "processes", "--workers", "2",
        "--calibrate", "--profile", str(profile),
    )
    assert proc.returncode == 0, proc.stderr
    assert profile.exists()

    proc = _run_cli("profile", "IS", "--profile", str(profile))
    assert proc.returncode == 0, proc.stderr
    assert "region feedback" in proc.stdout


@pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
@pytest.mark.parametrize("name", ["break", "infinite", "irreducible",
                                  "two-exits"])
def test_hand_written_cfgs_run_through_every_stage(name, backend):
    """CFGs the frontend never makes — irreducible, left mid-body, a loop
    with no exit — plan at ``-O3`` and run like the interpreter."""
    from repro.emulator.interp import run_module
    from support.ir_parser import parse_ir
    from support.programs import REFUSED_CFGS

    text = REFUSED_CFGS[name][0]
    expected = run_module(parse_ir(text))
    session = Session.from_module(parse_ir(text), name=name, opt_level=3)
    result = session.run("PS-PDG", backend=backend, workers=2)
    assert result.output == expected.output
    assert result.return_value == expected.return_value
