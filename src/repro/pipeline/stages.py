"""The pipeline stage graph (paper Fig. 12, made explicit).

Each :class:`Stage` names its upstream dependencies and knows how to
build its artifact from a session.  The session materializes stages
lazily: asking for ``pspdg`` pulls ``module -> function -> alias -> pdg``
first, each through the content-keyed cache, each exactly once.

Builders receive the owning :class:`repro.Session` and reach upstream
artifacts through its properties; the ``deps`` edges mirror that data
flow and are load-bearing — the session derives each stage's cache-key
config fields from the transitive dependency closure, so a config
change re-keys exactly the stages it can affect.  ``stats`` callbacks
summarize the artifact for :mod:`repro.pipeline.diagnostics`.
"""

import dataclasses

from repro.analysis.alias import AliasAnalysis
from repro.analysis.loops import find_natural_loops
from repro.core.builder import PSPDGBuilder
from repro.emulator.interp import Interpreter
from repro.emulator.profile import Profiler
from repro.frontend import compile_source
from repro.pdg.builder import build_pdg
from repro.planner.recipes import recipes_from_plan
from repro.planner.views import JKView, PDGView, PSPDGView


@dataclasses.dataclass(frozen=True, slots=True)
class Stage:
    """One node of the pipeline graph."""

    name: str
    deps: tuple
    build: callable
    stats: callable = None


def _build_module(session):
    if session._module is not None:
        return session._module
    return compile_source(session.source, session.config.name)


def _module_stats(module):
    return {
        "functions": len(module.functions),
        "instructions": sum(
            len(block.instructions)
            for function in module.functions.values()
            for block in function.blocks
        ),
    }


def _build_function(session):
    return session.module.function(session.config.function_name)


def _build_profile(session):
    name = session.config.function_name
    interpreter = Interpreter(session.module)
    return interpreter.run(name, profiler=Profiler(name))


def _build_alias(session):
    return AliasAnalysis(session.module)


def _build_pdg(session):
    return build_pdg(session.function, session.module, session.alias)


def _build_loops(session):
    return find_natural_loops(session.function)


def _build_pspdg(session):
    builder = PSPDGBuilder(
        session.function, session.module, session.alias, pdg=session.pdg
    )
    return builder.build()


_VIEW_FACTORIES = {
    "PDG": lambda s, removable: PDGView(
        s.function, s.module, s.pdg, s.alias, removable
    ),
    "J&K": lambda s, removable: JKView(
        s.function, s.module, s.pdg, s.pspdg, s.alias, removable
    ),
    "PS-PDG": lambda s, removable: PSPDGView(
        s.function, s.module, s.pspdg, s.alias, removable
    ),
}


def _build_views(session):
    # Removable objects depend on the loop, not on the abstraction: the
    # views share one mapping, so each loop's are computed once.
    removable = {}
    return {
        name: _VIEW_FACTORIES[name](session, removable)
        for name in session.config.abstractions
    }


def _build_calibrate(session):
    """The effective (possibly measured) machine model + wire feedback.

    With calibration off the artifact is the config's static machine
    and empty feedback, so downstream keys and decisions are byte-
    identical to the pre-calibration pipeline.  With calibration on,
    the session's :class:`~repro.planner.calibration.CalibrationStore`
    (loaded from the ``REPRO_PROFILE`` path at construction) supplies
    measured coefficients and the per-region-label payload feedback it
    remembered for this program — keyed by the module's content hash,
    per the graph-labelling idea of profiling region shapes rather than
    source positions.
    """
    base = session.config.machine
    if not session.calibrate_enabled:
        return {
            "machine": base,
            "payload_bytes": {},
            "prelude_warm": {},
            "compiled_speedup": {},
            "measured": {},
        }
    store = session.calibration
    payload_bytes, prelude_warm, compiled_speedup = store.region_feedback(
        session.program_key()
    )
    return {
        "machine": store.calibrated_machine(base),
        "payload_bytes": payload_bytes,
        "prelude_warm": prelude_warm,
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


def _build_optimize(session):
    """Run the ``-O`` pass pipeline over every planned abstraction.

    The artifact maps abstraction name -> :class:`OptimizationResult`
    (rewritten plan + report).  Keyed by ``opt_level`` and ``machine``
    (plus the planning fields), so flipping ``-O`` levels re-keys only
    this stage and ``recipes`` — the parse/PDG/PS-PDG artifacts upstream
    stay cached.  The machine model and wire feedback come from the
    ``calibrate`` stage: static defaults normally, measured coefficients
    when the session calibrates (the stage key carries the store's
    version, so a new observation re-prices plans on next access).
    """
    from repro.opt import optimize_plan

    calibrated = session.calibrated
    results = {}
    for name, entry in session.critical_paths().items():
        plan = entry.get("plan")
        if plan is None:
            continue
        results[name] = optimize_plan(
            session.function,
            session.module,
            session.pdg,
            session.pspdg,
            plan,
            session.config.opt_level,
            machine=calibrated["machine"],
            loops=session.loops,
            payload_bytes=calibrated["payload_bytes"] or None,
            prelude_warm=calibrated["prelude_warm"] or None,
            compiled_speedup=calibrated["compiled_speedup"] or None,
            compile_regions=session.compile_regions_enabled,
        )
    return results


def _optimize_stats(results):
    totals = {}
    for result in results.values():
        for key, value in result.report.summary().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _build_recipes(session):
    """Region execution recipes per abstraction, from the optimized plans."""
    return {
        name: recipes_from_plan(
            session.module, session.pspdg, result.plan, session.function
        )
        for name, result in session.optimizations.items()
    }


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

    Warms the codegen cache parent-side (both store variants: the
    threads backend's shims may or may not feed a write log) so region
    dispatch never pays compile latency, and reports which loops lowered
    and which fell back.  The compiled functions themselves live in the
    codegen cache keyed by the session's module object — they close
    over IR identities, so the *artifact* carries only the summary.
    Warming passes the module's wire key so the lowered *source* also
    lands in the content-hash cache: pool children fork with it and can
    rebuild entries for their re-decoded modules without re-lowering.
    """
    from repro.codegen import cache as codegen_cache
    from repro.runtime import payload as payload_codec

    loops_by_header = {
        loop.header.name: loop for loop in session.loops
    }
    module_key = payload_codec.module_codec(session.module).key
    summary = {"compiled": [], "fallback": [], "module_key": module_key}
    seen = set()
    for regions in session.region_recipes.values():
        for region in regions:
            for header in region.headers:
                loop = loops_by_header.get(header)
                if loop is None or loop.canonical is None or header in seen:
                    continue
                seen.add(header)
                entries = [
                    codegen_cache.compiled_chunk(
                        session.module, loop, logged=logged,
                        module_key=module_key,
                    )
                    for logged in (True, False)
                ]
                bucket = "compiled" if all(entries) else "fallback"
                summary[bucket].append(header)
    summary["codegen"] = codegen_cache.stats()
    return summary


def _compile_regions_stats(summary):
    return {
        "compiled_loops": len(summary["compiled"]),
        "fallback_loops": len(summary["fallback"]),
        "codegen_seconds": round(summary["codegen"]["seconds"], 6),
    }


STAGES = {
    stage.name: stage
    for stage in (
        Stage("module", (), _build_module, _module_stats),
        Stage("function", ("module",), _build_function),
        Stage(
            "profile",
            ("module",),
            _build_profile,
            lambda execution: {"steps": execution.steps},
        ),
        Stage("alias", ("module",), _build_alias),
        Stage(
            "pdg",
            ("function", "alias"),
            _build_pdg,
            lambda pdg: {"nodes": len(pdg.nodes), "edges": len(pdg.edges)},
        ),
        Stage(
            "loops",
            ("function",),
            _build_loops,
            lambda loops: {"loops": len(loops)},
        ),
        Stage(
            "pspdg",
            ("function", "alias", "pdg"),
            _build_pspdg,
            lambda graph: graph.statistics(),
        ),
        Stage(
            "views",
            ("function", "pdg", "pspdg", "alias"),
            _build_views,
            lambda views: {"abstractions": ",".join(views)},
        ),
        # Profile-guided calibration: the effective machine model and
        # measured wire feedback the optimizer prices plans with.
        Stage(
            "calibrate",
            ("module",),
            _build_calibrate,
            _calibrate_stats,
        ),
        # The ``-O`` pipeline: pass-rewritten plans, then the region
        # recipes the runtime dispatches.  Builders additionally reach
        # the planning query (``critical_paths``) through the session;
        # its key fields are folded in via _STAGE_PARAMS["optimize"].
        Stage(
            "optimize",
            ("function", "pdg", "pspdg", "loops", "calibrate"),
            _build_optimize,
            _optimize_stats,
        ),
        Stage(
            "recipes",
            ("optimize",),
            _build_recipes,
            _recipes_stats,
        ),
        # Region-body compilation: exec-compiled chunk functions for the
        # planned loops, warmed ahead of the first dispatch.  Keyed (via
        # _STAGE_PARAMS) by the ``compile_regions`` knob on top of the
        # recipes closure.
        Stage(
            "compile_regions",
            ("recipes", "loops"),
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
