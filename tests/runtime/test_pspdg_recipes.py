"""Executing plans derived from the PS-PDG itself (not just the source).

`parallelization_from_pspdg` turns the PS-PDG's variables for a loop into
an execution recipe; running it must preserve sequential semantics — this
is the end-to-end statement that PS-PDG-derived plans are safe.
"""
from repro.analysis.record import FunctionAnalyses
from repro.core.builder import PSPDGBuilder
from repro.emulator import run_module
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from repro.runtime import parallelization_from_pspdg, run_parallel

THREADPRIVATE_HISTOGRAM = """
global key: int[64];
global prv: int[8];
pragma omp threadprivate(prv)

func main() {
  var hits: int = 0;
  for s in 0..64 {
    key[s] = (s * 5 + 3) % 8;
  }
  pragma omp for reduction(+: hits)
  for j in 0..64 {
    var b: int = key[j];
    prv[b] = prv[b] + 1;
    hits = hits + 1;
  }
  print(hits);
}
"""


def test_pspdg_recipe_includes_declared_variables():
    module = compile_source(THREADPRIVATE_HISTOGRAM)
    function = module.function("main")
    graph = PSPDGBuilder(
        pdg_from_analyses(FunctionAnalyses(function, module))
    ).build()
    annotated = next(
        loop
        for loop in graph.pdg.analyses.loops
        if any(
            a.loop_header == loop.header.name for a in function.annotations
        )
    )
    recipe = parallelization_from_pspdg(graph, annotated)
    privatized_names = {
        getattr(s, "var_name", None) or getattr(s, "name", None)
        for s in recipe.privatized
    }
    assert "prv" in privatized_names  # threadprivate global
    assert "j" in privatized_names  # induction variable
    reduction_names = {
        getattr(s, "var_name", None) for s, _op in recipe.reductions
    }
    assert "hits" in reduction_names


def test_pspdg_recipe_execution_matches_sequential():
    module = compile_source(THREADPRIVATE_HISTOGRAM)
    expected = run_module(module).formatted_output()
    for seed in (0, 1, 5):
        fresh = compile_source(THREADPRIVATE_HISTOGRAM)
        function = fresh.function("main")
        graph = PSPDGBuilder(
            pdg_from_analyses(FunctionAnalyses(function, fresh))
        ).build()
        annotated = next(
            loop
            for loop in graph.pdg.analyses.loops
            if any(
                a.loop_header == loop.header.name
                for a in function.annotations
            )
        )
        recipe = parallelization_from_pspdg(graph, annotated)
        result = run_parallel(fresh, [recipe], workers=4, seed=seed)
        assert result.formatted_output() == expected, f"seed={seed}"
