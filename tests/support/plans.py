"""Test-only drivers: run a plan, or the source's own plan, in one call.

``run_plan`` executes a :class:`~repro.planner.plans.ProgramPlan` chosen
from the PS-PDG; ``run_source_plan`` executes the developer's OpenMP
plan (every worksharing annotation).  Both prepare the recipes in their
function (``prepared``, the one way a test binds recipes to a function)
and hand the records to :func:`repro.runtime.run_parallel`, as
``Session.run`` does from its cached stages.
"""

from repro.analysis.loops import find_natural_loops
from repro.planner.recipes import recipes_from_annotations, recipes_from_plan
from repro.runtime import run_parallel
from repro.runtime.executor import prepare_plan


def prepared(module, regions=None, function_name="main", loops=None):
    """``regions`` prepared in ``function_name`` of ``module``, as the
    records :func:`repro.runtime.run_parallel` dispatches.

    ``regions`` defaults to the function's worksharing annotations'
    recipes; ``loops`` (header name -> natural loop) to the function's
    natural loops, found afresh.
    """
    function = module.function(function_name)
    if regions is None:
        regions = recipes_from_annotations(function)
    if loops is None:
        loops = {
            loop.header.name: loop for loop in find_natural_loops(function)
        }
    return prepare_plan(regions, function, loops)


def run_plan(pspdg, plan, **options):
    """Execute ``plan`` on the graph's module and function.

    The plan's dispatched loops (its optimizer-produced regions when it
    has them, one region per canonical DOALL otherwise) take over with
    PS-PDG-derived privatization and reduction recipes; everything else
    runs sequentially.  The loop forest is the analysis record's;
    ``options`` as for :func:`repro.runtime.run_parallel`.
    """
    analyses = pspdg.pdg.analyses
    name = pspdg.function.name
    return run_parallel(
        analyses.module,
        prepared(
            analyses.module, recipes_from_plan(pspdg, plan), name,
            analyses.loops_by_header,
        ),
        name,
        forest={name: analyses.loops_by_header},
        **options,
    )


def run_source_plan(module, function_name="main", **options):
    """Execute the developer's OpenMP plan (all worksharing annotations)."""
    return run_parallel(
        module, prepared(module, None, function_name), function_name,
        **options,
    )
