"""Per-layer metrics: counts read at the span boundaries, then summed.

Times come from the spans (a layer's self time); counts come from the
public artifacts the call returned — ``Session`` stage artifacts and
``diagnostics`` for a compile, ``result.parallel_regions`` and
``result.sequence_stats`` for a run.  A workload's value is the sum over
its programs of the per-program median, except the ratios listed in
:data:`GEOMEAN` (geometric mean over programs) and the ones
:func:`derive` computes from the summed parts.
"""

import statistics

from repro.codegen import cache as codegen_cache

from catalogue import PLAN

#: Ratios: averaged over programs, not summed.
GEOMEAN = ("planner.cp_speedup_pspdg",)

#: Region stats keys summed over a run's regions, by metric name.
_REGION_SUMS = {
    "runtime.payload.payloads": "payloads",
    "runtime.payload.bytes": "payload_bytes",
    "runtime.payload.dirty_slots": "dirty_slots",
    "runtime.payload.prelude_hits": "prelude_hits",
    "runtime.payload.prelude_misses": "prelude_misses",
    "runtime.payload.prelude_bytes_saved": "prelude_bytes_saved",
    "runtime.payload.retry_bytes": "retry_payload_bytes",
    "codegen.compiled_chunks": "compiled_chunks",
    "codegen.interpreted_chunks": "interpreted_chunks",
    "codegen.fallbacks": "codegen_fallbacks",
    "codegen.source_hits": "codegen_source_hits",
    "runtime.backends.retries": "retries",
    "runtime.backends.failovers": "failovers",
}


def compile_counts(session):
    """Artifact sizes and pass counts of one compiled Session."""
    diagnostics = session.diagnostics
    graph = session.pspdg.statistics()
    reports = [result.report for result in session.optimizations.values()]
    recipes = session.region_recipes[PLAN]
    counts = {
        "frontend.ir_instructions":
            diagnostics.stats("module")["instructions"],
        "emulator.profile_steps": session.execution.steps,
        "analysis.loops": len(session.loops),
        "pdg.nodes": len(session.pdg.nodes),
        "pdg.edges": len(session.pdg.edges),
        "core.pspdg_nodes":
            graph["instruction_nodes"] + graph["hierarchical_nodes"],
        "core.pspdg_edges":
            graph["directed_edges"] + graph["undirected_edges"]
            + graph["selector_edges"],
        "planner.cp_speedup_pspdg":
            session.critical_paths()[PLAN]["speedup"],
        "opt.passes_applied":
            sum(sum(report.summary().values()) for report in reports),
        "opt.passes_rejected":
            sum(len(report.rejected) for report in reports),
        "opt.regions_out": len(recipes),
        "opt.regions_fused": sum(1 for region in recipes if region.fused),
    }
    if diagnostics.runs("options"):
        counts["planner.options_total"] = session.options().totals[PLAN]
    if diagnostics.runs("compile_regions"):
        summary = session.compiled_regions
        loops = {loop.header.name: loop for loop in session.loops}
        counts["codegen.compiled_loops"] = len(summary["compiled"])
        counts["codegen.fallback_loops"] = len(summary["fallback"])
        # Generated-code size: both store variants of every lowered loop.
        counts["codegen.source_bytes"] = sum(
            len(codegen_cache.compiled_chunk(
                session.module, loops[header], logged=logged
            ).source.encode())
            for header in summary["compiled"]
            for logged in (True, False)
        )
    return counts


def run_counts(result):
    """Where one run's time went, from its public region stats.

    ``compute_s`` is the blocking part as the regions report it: the
    slowest worker's own clock per region.  On ``threads`` the workers
    share the interpreter lock, so the truth lies between it and
    ``worker_busy_s`` (every worker's clock summed); the ``simulated``
    backend times no worker and reports 0 for both.
    """
    regions = result.parallel_regions
    counts = {
        metric: sum(region[key] for region in regions)
        for metric, key in _REGION_SUMS.items()
    }
    slowest = busy = max_steps = mean_steps = 0.0
    for region in regions:
        workers = region["per_worker"]
        slowest += max(worker["seconds"] for worker in workers)
        busy += sum(worker["seconds"] for worker in workers)
        steps = [w["steps"] for w in workers if w["iterations"]]
        if steps:
            max_steps += max(steps)
            mean_steps += sum(steps) / len(steps)
    counts.update({
        "runtime.executor.region_s":
            sum(region["seconds"] for region in regions),
        "runtime.backends.compute_s": slowest,
        "runtime.backends.worker_busy_s": busy,
        "_max_steps": max_steps,
        "_mean_steps": mean_steps,
        "runtime.executor.regions": len(regions),
        "runtime.executor.regions_downgraded":
            sum(1 for region in regions if "->" in region["backend"]),
        "codegen.seq_compiled": result.sequence_stats["compiled"],
        "codegen.seq_interpreted": result.sequence_stats["interpreted"],
        "emulator.steps": result.steps,
    })
    return counts


def span_samples(tracer):
    """Program -> one ``{metric: value}`` dict per traced operation.

    A root span contributes ``<name>_s`` (its duration), its children
    ``<child>_s`` (their self times) and, for a compile, the root's own
    self time as ``pipeline.glue_s``; the counts recorded on the root
    ride along.
    """
    own = tracer.self_times()
    samples = {}
    by_root = {}
    for span in tracer.spans:
        if span["parent"] is None:
            sample = dict(span.get("counts", ()))
            sample[span["name"] + "_s"] = span["end"] - span["start"]
            if span["name"] == "session.compile":
                sample["pipeline.glue_s"] = own[span["id"]]
            by_root[span["id"]] = sample
            samples.setdefault(span["program"], []).append(sample)
        else:
            by_root[span["parent"]][span["name"] + "_s"] = own[span["id"]]
    return samples


def summarize(samples):
    """Sum (or average) the per-program medians into workload values."""
    totals = {}
    ratios = {}
    for program_samples in samples.values():
        keys = {key for sample in program_samples for key in sample}
        for key in keys:
            value = statistics.median(
                sample[key] for sample in program_samples if key in sample
            )
            if key in GEOMEAN:
                ratios.setdefault(key, []).append(value)
            else:
                totals[key] = totals.get(key, 0) + value
    for key, values in ratios.items():
        totals[key] = statistics.geometric_mean(values)
    return derive(totals)


def derive(totals):
    """The metrics that are differences or ratios of summed parts."""
    run_s = totals.get("session.run_s", 0.0)
    region_s = totals.get("runtime.executor.region_s", 0.0)
    totals["runtime.executor.seq_s"] = run_s - region_s
    totals["runtime.backends.dispatch_overhead_s"] = (
        region_s - totals.get("runtime.backends.compute_s", 0.0)
    )
    mean_steps = totals.pop("_mean_steps", 0.0)
    max_steps = totals.pop("_max_steps", 0.0)
    totals["runtime.backends.worker_imbalance"] = (
        max_steps / mean_steps if mean_steps else 0.0
    )
    totals["emulator.steps_per_s"] = (
        totals.get("emulator.steps", 0.0) / run_s if run_s else 0.0
    )
    return totals
