"""Test-only drivers: run a plan, or the source's own plan, in one call.

``run_plan`` executes a :class:`~repro.planner.plans.ProgramPlan` chosen
from the PS-PDG; ``run_source_plan`` executes the developer's OpenMP
plan (every worksharing annotation).  Both prepare the regions in their
function (``prepared``, the one way a test binds regions to a function)
and hand the records to :func:`repro.runtime.run_parallel`, as
``Session.run`` does from its cached stages.
"""

from repro.analysis.record import FunctionAnalyses
from repro.opt import restructure_plan
from repro.planner.plans import RegionDescriptor
from repro.planner.recipes import LoopParallelization, recipes_from_annotations
from repro.runtime import run_parallel
from repro.runtime.executor import prepare_plan


def prepared(module, regions=None, function_name="main", loops=None):
    """``regions`` prepared in ``function_name`` of ``module``, as the
    records :func:`repro.runtime.run_parallel` dispatches.

    ``regions`` defaults to the function's worksharing annotations'
    regions; a bare :class:`LoopParallelization` among them runs as a
    one-member region.  ``loops`` (header name -> natural loop) defaults
    to the function's natural loops, from a record built afresh.
    """
    function = module.function(function_name)
    if regions is None:
        regions = recipes_from_annotations(function)
    regions = [
        RegionDescriptor(recipes=(region,))
        if isinstance(region, LoopParallelization) else region
        for region in regions
    ]
    if loops is None:
        loops = FunctionAnalyses(function, module).loops_by_header
    return prepare_plan(regions, function, loops)


def run_plan(pspdg, plan, **options):
    """Execute ``plan`` on the graph's module and function.

    The plan's dispatched regions (its optimizer-produced ones when it
    has them, else the ``-O0`` seed: one per executable DOALL loop) take
    over with PS-PDG-derived privatization and reduction recipes;
    everything else runs sequentially.  The loop forest is the analysis
    record's; ``options`` as for :func:`repro.runtime.run_parallel`.
    """
    analyses = pspdg.pdg.analyses
    name = pspdg.function.name
    if not plan.regions:
        plan = restructure_plan(pspdg, plan, 0).plan
    return run_parallel(
        analyses.module,
        prepared(
            analyses.module, plan.dispatched(), name,
            analyses.loops_by_header,
        ),
        name,
        analyses=analyses,
        **options,
    )


def run_source_plan(module, function_name="main", **options):
    """Execute the developer's OpenMP plan (all worksharing annotations)."""
    return run_parallel(
        module, prepared(module, None, function_name), function_name,
        **options,
    )
