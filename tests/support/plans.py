"""Test-only drivers: run a plan, or the source's own plan, in one call.

``run_plan`` executes a :class:`~repro.planner.plans.ProgramPlan` chosen
from the PS-PDG; ``run_source_plan`` executes the developer's OpenMP
plan (every worksharing annotation).  Both build the recipes and hand
them to :func:`repro.runtime.run_parallel`, as ``Session.run`` does from
its cached stages.
"""

from repro.planner.recipes import recipes_from_annotations, recipes_from_plan
from repro.runtime import run_parallel


def run_plan(pspdg, plan, **options):
    """Execute ``plan`` on the graph's module and function.

    The plan's dispatched loops (its optimizer-produced regions when it
    has them, one region per canonical DOALL otherwise) take over with
    PS-PDG-derived privatization and reduction recipes; everything else
    runs sequentially.  The loop forest is the analysis record's;
    ``options`` as for :func:`repro.runtime.run_parallel`.
    """
    analyses = pspdg.pdg.analyses
    return run_parallel(
        analyses.module,
        recipes_from_plan(pspdg, plan),
        pspdg.function.name,
        forest={pspdg.function.name: analyses.loops_by_header},
        **options,
    )


def run_source_plan(module, function_name="main", **options):
    """Execute the developer's OpenMP plan (all worksharing annotations)."""
    recipes = recipes_from_annotations(module.function(function_name))
    return run_parallel(module, recipes, function_name, **options)
