"""End-to-end pipeline tests: source -> IR -> PDG -> PS-PDG -> plan -> run."""

from repro import Session
from repro.analysis.record import FunctionAnalyses
from repro.core.builder import PSPDGBuilder
from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.pdg.builder import pdg_from_analyses
from support.plans import run_source_plan
from support.profile_shapes import loop_instances, recorded_profile

PROGRAM = """
global data: int[96];
global buckets: int[12];

func classify(value: int) -> int {
  return (value * 7 + 3) % 12;
}

func main() {
  for s in 0..96 {
    data[s] = (s * 31 + 17) % 101;
  }
  var total: int = 0;
  pragma omp parallel
  {
    pragma omp for
    for i in 0..96 {
      var b: int = classify(data[i]);
      pragma omp critical
      { buckets[b] = buckets[b] + 1; }
    }
    pragma omp for reduction(+: total)
    for j in 0..12 {
      total = total + buckets[j] * buckets[j];
    }
  }
  print("total", total);
}
"""


def test_full_pipeline_produces_consistent_artifacts():
    module = compile_source(PROGRAM)
    verify_module(module)
    function = module.function("main")

    pdg = pdg_from_analyses(FunctionAnalyses(function, module))
    assert pdg.edges

    pspdg = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(function, module))
    ).build()
    stats = pspdg.statistics()
    assert stats["undirected_edges"] >= 1  # the critical
    assert stats["reducible"] == 1  # total
    assert stats["relaxations"] > 0

    result = run_module(module)
    assert result.formatted_output()


def test_pretty_printer_covers_annotations():
    module = compile_source(PROGRAM)
    text = print_module(module)
    assert "omp for" in text
    assert "omp critical" in text
    assert "loop for.header" in text


def test_experiments_agree_with_runtime_validation():
    setup = Session.from_source(PROGRAM, name="integration")

    report = setup.options()
    assert report.totals["PS-PDG"] >= report.totals["OpenMP"]

    results = setup.critical_paths()
    assert results["PS-PDG"]["speedup"] >= 1.0

    # The source plan executes correctly on the simulated machine.
    sequential = run_module(compile_source(PROGRAM)).formatted_output()
    for seed in (0, 3):
        parallel = run_source_plan(
            compile_source(PROGRAM), workers=4, seed=seed
        )
        assert parallel.formatted_output() == sequential


def test_plans_are_reported_with_techniques():
    setup = Session.from_source(PROGRAM, name="integration")
    results = setup.critical_paths()
    plan = results["PS-PDG"]["plan"]
    description = plan.describe()
    assert "plan PS-PDG" in description
    techniques = {lp.technique for lp in plan.loop_plans.values()}
    assert techniques <= {"DOALL", "HELIX", "DSWP", "SEQ"}


def test_interpreter_profile_feeds_planner():
    setup = Session.from_source(PROGRAM, name="integration")
    assert setup.profile.total() == setup.execution.steps
    # The session's profile is produced as shapes; the interpreter's
    # recorded tree is the same profile, and has the loop instances.
    recorded = recorded_profile(setup)
    assert loop_instances(recorded)
    assert setup.profile.shapes().children
