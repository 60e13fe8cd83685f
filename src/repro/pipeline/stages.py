"""The pipeline stage graph (paper Fig. 12, made explicit).

Each :class:`Stage` names its upstream dependencies, the config fields
its builder reads (``params``), and how to build its artifact.  The
session materializes stages lazily: asking for ``pspdg`` pulls ``module
-> function -> analyses -> pdg`` first, each through the session's
stage memo, each exactly once.  ``analyses`` is the function's analysis record
(:class:`~repro.analysis.record.FunctionAnalyses`): the ``alias`` and
``loops`` stages read it, the PDG is built from it, and everything
downstream reaches it through the graphs — no builder runs an analysis
of its own.

A builder receives the owning :class:`repro.Session` — for upstream
artifacts, through its properties — and the *values* of its declared
``params``, positionally; it never touches ``session.config``.  Its
memo key holds those params' values plus, transitively through the
``deps`` edges, every upstream stage's, so a builder can only read what
its key holds: changing the config ``name`` (a ``module`` param) re-keys
everything downstream, while a machine-model change re-enumerates
options without invalidating the PS-PDG.  ``stats`` callbacks summarize
the artifact for :mod:`repro.pipeline.diagnostics`.
"""

import dataclasses
import functools

from repro.analysis.record import FunctionAnalyses
from repro.codegen import cache as codegen_cache
from repro.codegen.lower import chunk_tier
from repro.codegen.profile import profile_function
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from repro.opt import restructure_plan
from repro.planner.critical_path import CriticalPathEvaluator
from repro.planner.machine import compute_overlaps
from repro.planner.options import count_options
from repro.planner.plans import (
    abstraction_plan,
    loop_uid_map,
    openmp_source_plan,
)
from repro.planner.recipes import recipes_from_annotations
from repro.planner.views import DependenceIndex, DependenceView
from repro.runtime import knobs
from repro.runtime.executor import prepare_plan


@dataclasses.dataclass(frozen=True, slots=True)
class Stage:
    """One node of the pipeline graph.

    ``params`` are the :class:`~repro.pipeline.config.SessionConfig`
    fields ``build`` receives after the session, in order.
    ``calibrated`` marks the stage whose artifact depends on the
    calibration store's *contents*, not just config: its key — and
    every downstream stage's — carries the store version, so a new
    observation re-prices plans while the graph stages upstream stay
    put.  ``decisions`` maps the artifact of a stage downstream of a
    calibrated one to the decisions it holds, when those are all that
    the stages below it read of the calibration: their keys then carry
    the decisions instead of the store version, so an observation that
    moves no decision rebuilds nothing below this stage.
    """

    name: str
    deps: tuple
    build: callable
    stats: callable = None
    params: tuple = ()
    calibrated: bool = False
    decisions: callable = None


def _build_module(session, name):
    if session._module is not None:
        return session._module
    return compile_source(session.source, name)


def _module_stats(module):
    return {
        "functions": len(module.functions),
        "instructions": sum(
            len(block.instructions)
            for function in module.functions.values()
            for block in function.blocks
        ),
    }


def _build_function(session, function_name):
    return session.module.function(function_name)


def _build_profile(session):
    """The sequential run and its loop-nest profile.

    Runs compiled, lowered against the session's analysis record; the
    interpreter takes a function the lowering refuses, and
    ``VERIFY_COMPILED`` arms it as the cross-check.
    """
    return profile_function(
        session.analyses, verify=bool(knobs.VERIFY_COMPILED)
    )


def _profile_stats(execution):
    profile = execution.profile
    return {
        "steps": execution.steps,
        "engine": profile.engine,
        "refused": profile.refused,
    }


def _build_source_regions(session):
    """The developer's OpenMP plan as prepared regions: every
    source-plan run dispatches the same records."""
    return prepare_plan(
        recipes_from_annotations(session.function), session.function,
        session.analyses.loops_by_header,
    )


def _build_analyses(session):
    return FunctionAnalyses(session.function, session.module)


def _build_alias(session):
    return session.analyses.alias


def _build_loops(session):
    return session.analyses.loops


def _build_pdg(session):
    # The memory edges read the record's alias analysis and loops: pull
    # both through their own stages, so each is timed and reported by
    # name whichever artifact a caller asks for first.
    _ = session.alias, session.loops
    return pdg_from_analyses(session.analyses)


def _build_pspdg(session):
    return PSPDGBuilder(session.pdg).build()


def _build_views(session, abstractions):
    index = DependenceIndex(session.pspdg)
    return {n: DependenceView(n, session.pspdg, index) for n in abstractions}


def _build_options(session, name, machine):
    """Fig. 13 option enumeration."""
    return count_options(
        name, session.function, session.loops, session.profile,
        session.views, machine,
    )


#: The paper's per-abstraction method (§6.2): J&K and PS-PDG inherit the
#: developer's inner loops, and only PS-PDG may plan every loop.
_HIERARCHICAL, _ALL_LOOPS = ("J&K", "PS-PDG"), ("PS-PDG",)


def _build_critical_paths(session):
    """Fig. 14 per-abstraction critical paths, speedups, and plans."""
    profile = session.profile
    function = session.function
    loops = session.loops
    uid_map = loop_uid_map(loops)

    evaluator_factory = functools.partial(CriticalPathEvaluator, profile)
    results = {}
    results["Sequential"] = {
        "critical_path": profile.shapes().total,
        "speedup": None,
    }
    openmp_plan = openmp_source_plan(function, uid_map)
    openmp_cp = evaluator_factory(openmp_plan).evaluate()
    results["OpenMP"] = {
        "critical_path": openmp_cp,
        "speedup": 1.0,
        "plan": openmp_plan,
    }
    for name, view in session.views.items():
        plan, cp = abstraction_plan(
            name,
            function,
            view,
            evaluator_factory,
            loops,
            uid_map,
            hierarchical_inner=name in _HIERARCHICAL,
            plan_all_loops=name in _ALL_LOOPS,
        )
        results[name] = {
            "critical_path": cp,
            "speedup": openmp_cp / cp if cp else float("inf"),
            "plan": plan,
        }
    return results


def _critical_paths_stats(results):
    return {
        name: round(entry["speedup"], 3)
        for name, entry in results.items()
        if entry.get("speedup") is not None
    }


def _build_calibrate(session, machine, calibrate):
    """The effective (possibly measured) machine model + wire feedback.

    With calibration off the artifact is the config's static machine
    and empty feedback, so downstream keys and decisions are those of
    the pre-calibration pipeline.  With calibration on,
    the session's :class:`~repro.planner.calibration.CalibrationStore`
    (loaded from the config's ``profile_path`` on first touch) supplies
    measured coefficients and the per-region-label payload feedback it
    remembered for this program — keyed by the module's content hash,
    per the graph-labelling idea of profiling region shapes rather than
    source positions.
    """
    if not calibrate:
        return {
            "machine": machine,
            "payload_bytes": {},
            "compiled_speedup": {},
            "measured": {},
        }
    store = session.calibration
    payload_bytes, compiled_speedup = store.region_feedback(
        session.program_key()
    )
    return {
        "machine": store.calibrated_machine(machine),
        "payload_bytes": payload_bytes,
        "compiled_speedup": compiled_speedup,
        "measured": {
            name: value
            for name, (value, _samples)
            in store.measured_coefficients().items()
        },
    }


def _calibrate_stats(artifact):
    return {
        "coefficients": len(artifact["measured"]),
        "labels": len(artifact["payload_bytes"]),
    }


def _build_restructure(session, opt_level):
    """The ``-O`` passes that read only the graphs, over every planned
    abstraction.

    The artifact maps abstraction name -> the
    :func:`~repro.opt.restructure_plan` result: seeded regions after
    fusion and sync elimination.  Nothing here reads the machine model,
    so a calibration observation, which re-prices the ``optimize``
    stage below, leaves this one cached.
    """
    return {
        name: restructure_plan(session.pspdg, entry["plan"], opt_level)
        for name, entry in session.critical_paths().items()
        if entry.get("plan") is not None
    }


def _restructure_stats(results):
    return {
        "fused": sum(len(r.report.fused) for r in results.values()),
        "rejected": sum(len(r.report.rejected) for r in results.values()),
    }


def _build_optimize(session, compile_regions, backend):
    """Price every restructured plan: the rest of the ``-O`` pipeline.

    The artifact maps abstraction name -> :class:`OptimizationResult`
    (rewritten plan + report).  ``backend`` is what pricing reads of the
    config's backend: whether its workers' compute overlaps (``READS``).
    Flipping the ``-O`` level, the engine the plan is priced for, or the
    backend to one that overlaps otherwise re-keys only this stage and
    the ones downstream — the parse/PDG/PS-PDG artifacts upstream stay
    cached.
    The machine model and wire feedback come from the ``calibrate``
    stage: static defaults normally, measured coefficients when the
    session calibrates.
    """
    return {
        name: session._priced(result, compile_regions, backend)
        for name, result in session.restructured.items()
    }


def _optimize_decisions(results):
    """What ``recipes`` and below read of the priced plans: each
    abstraction's region descriptors."""
    return tuple(
        (name, result.plan.regions) for name, result in results.items()
    )


def _optimize_stats(results):
    totals = {}
    for result in results.values():
        for key, value in result.report.summary().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _build_recipes(session):
    """Prepared regions per planned abstraction, from the optimized
    plans' dispatched descriptors, in the session's function over its
    loops.  The source plan is left out: its runs dispatch
    ``source_regions``.  Abstractions whose plans dispatch equal regions
    (descriptors compare by what they dispatch) share one tuple of
    records."""
    function = session.function
    loops = session.analyses.loops_by_header
    records = {}  # regions -> their prepared tuple
    recipes = {}
    for name, result in session.optimizations.items():
        if name == "OpenMP":
            continue
        regions = result.plan.dispatched()
        if regions not in records:
            records[regions] = prepare_plan(regions, function, loops)
        recipes[name] = records[regions]
    return recipes


def _recipes_stats(recipes):
    return {
        "regions": sum(len(regions) for regions in recipes.values()),
        "fused": sum(
            1
            for regions in recipes.values()
            for region in regions
            if region.fused
        ),
    }


def _build_compile_regions(session):
    """Precompile every planned region loop through :mod:`repro.codegen`.

    Warms the codegen cache parent-side — one body per loop, the one
    every backend and the ``VERIFY_COMPILED`` oracle run — so region
    dispatch never pays compile latency, and reports which loops
    lowered (``tiers``: ``structured``, the loop nest it is, or
    ``refused`` with the block and why) and which fell back.  The compiled
    functions themselves live in the codegen cache keyed by the
    session's module object — they close over IR identities, so the
    *artifact* carries only the summary.  The module is not pickled
    here: a ``processes`` pool child decodes its own copy and lowers
    each body once, the first time it runs one.
    """
    summary = {"compiled": [], "fallback": [], "tiers": {}}
    analyses = session.analyses
    seen = set()
    for regions in session.region_recipes.values():
        for region in regions:
            for loop in region.loops:
                header = loop.header.name
                if header in seen:
                    continue
                seen.add(header)
                entry = codegen_cache.compiled_chunk(
                    session.module, loop, analyses
                )
                bucket = "compiled" if entry else "fallback"
                summary[bucket].append(header)
                summary["tiers"][header] = chunk_tier(analyses, loop, entry)
    summary["codegen"] = codegen_cache.stats()
    return summary


def _compile_regions_stats(summary):
    return {
        "compiled_loops": len(summary["compiled"]),
        "fallback_loops": len(summary["fallback"]),
        "codegen_seconds": round(summary["codegen"]["seconds"], 6),
        # Which loops lowered, and what refused the ones that did not.
        "lowering": ",".join(
            f"{header}:{kind}" + (f"({why})" if why else "")
            for header, (kind, why) in summary["tiers"].items()
        ),
    }


STAGES = {
    stage.name: stage
    for stage in (
        Stage("module", (), _build_module, _module_stats, params=("name",)),
        Stage("function", ("module",), _build_function,
              params=("function_name",)),
        Stage(
            "source_regions", ("function", "analyses"), _build_source_regions
        ),
        # The analysis record: each part is computed on first use, so
        # the stages below are timed for the part they ask for.
        Stage("analyses", ("module", "function"), _build_analyses),
        Stage("alias", ("analyses",), _build_alias),
        Stage(
            "loops",
            ("analyses",),
            _build_loops,
            lambda loops: {"loops": len(loops)},
        ),
        Stage(
            "profile",
            ("analyses", "loops"),
            _build_profile,
            _profile_stats,
        ),
        Stage(
            "pdg",
            ("analyses", "alias", "loops"),
            _build_pdg,
            lambda pdg: {"nodes": len(pdg.nodes), "edges": len(pdg.edges)},
        ),
        Stage(
            "pspdg",
            ("pdg",),
            _build_pspdg,
            lambda graph: graph.statistics(),
        ),
        Stage(
            "views",
            ("pspdg",),
            _build_views,
            lambda views: {"abstractions": ",".join(views)},
            params=("abstractions",),
        ),
        # The planning queries (Fig. 13 / Fig. 14).
        Stage(
            "options",
            ("function", "loops", "profile", "views"),
            _build_options,
            lambda report: dict(report.totals),
            params=("name", "machine"),
        ),
        Stage(
            "critical_paths",
            ("function", "loops", "profile", "views"),
            _build_critical_paths,
            _critical_paths_stats,
        ),
        # Profile-guided calibration: the effective machine model and
        # measured wire feedback the optimizer prices plans with.
        Stage(
            "calibrate",
            ("module",),
            _build_calibrate,
            _calibrate_stats,
            params=("machine", "calibrate"),
            calibrated=True,
        ),
        # The ``-O`` pipeline: pass-rewritten plans (restructured, then
        # priced), then the region recipes the runtime dispatches.
        Stage(
            "restructure",
            ("pspdg", "critical_paths"),
            _build_restructure,
            _restructure_stats,
            params=("opt_level",),
        ),
        Stage(
            "optimize",
            ("pspdg", "restructure", "calibrate"),
            _build_optimize,
            _optimize_stats,
            params=("compile_regions", "backend"),
            decisions=_optimize_decisions,
        ),
        Stage(
            "recipes",
            ("optimize", "analyses"),
            _build_recipes,
            _recipes_stats,
        ),
        # Region-body compilation: exec-compiled chunk functions for the
        # planned loops, warmed ahead of the first dispatch.
        Stage(
            "compile_regions",
            ("recipes", "analyses"),
            _build_compile_regions,
            _compile_regions_stats,
        ),
    )
}


def stage_order(target):
    """Topological (dependency-first) order of stages needed by ``target``."""
    order = []

    def visit(name):
        if name in order:
            return
        for dep in STAGES[name].deps:
            visit(dep)
        order.append(name)

    visit(target)
    return order


#: The key token of a stage that reads the calibration store directly.
VERSION = "version"

#: Config field -> all its builders read of it (pricing: whether a
#: backend's workers overlap); keys hold that, so alike configs share.
READS = {"backend": compute_overlaps}


def param_value(config, field):
    """What a builder receives, and a memo key holds, of ``field``."""
    read = READS.get(field)
    value = getattr(config, field)
    return value if read is None else read(value)


def _key_plan(name):
    closure = [STAGES[dep] for dep in stage_order(name)]
    fields = {field for stage in closure for field in stage.params}
    token = None
    if any(stage.calibrated for stage in closure):
        deciders = [stage.name for stage in closure[:-1] if stage.decisions]
        token = deciders[-1] if deciders else VERSION
    return tuple(sorted(fields)), token


#: Stage name -> (config fields its memo key holds, what its key
#: carries of a calibrating session's store): the stage's own
#: ``params`` joined with those of everything upstream, and ``None``
#: (nothing calibrated upstream), :data:`VERSION` (the store version),
#: or the name of the nearest upstream stage with ``decisions`` (the
#: decisions its artifact holds).  Computed once.
KEY_PLANS = {name: _key_plan(name) for name in STAGES}
