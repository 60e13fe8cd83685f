"""The pass manager: ``-O`` levels over (PS-PDG, ProgramPlan).

The pipeline runs in two halves.  :func:`restructure_plan` seeds the
plan's region descriptors (one per executable DOALL loop — byte-for-byte
the runtime's historical dispatch set, so ``-O0`` is exactly the legacy
behavior) and runs the level's passes that read only the graphs;
:func:`price_plan` runs the ones that read the machine model.  Each pass
rewrites the region list under the legality predicates of
:mod:`repro.opt.legality`.  The result carries both the rewritten plan
and an :class:`OptReport` the CLI's ``report`` subcommand and the test
suite consume.
"""

import dataclasses
import time

from repro.opt.context import OptContext
from repro.opt.fusion import RegionFusionPass
from repro.opt.levels import OptLevel
from repro.opt.serialize import SmallRegionSerializationPass
from repro.opt.sync import SyncEliminationPass
from repro.opt.tiling import TilingPass
from repro.planner.machine import DEFAULT_MACHINE
from repro.planner.plans import RegionDescriptor
from repro.planner.recipes import executable_doall_headers


@dataclasses.dataclass
class OptReport:
    """What the pipeline did (and refused to do) to one plan."""

    level: OptLevel
    plan_name: str
    fused: list = dataclasses.field(default_factory=list)
    syncs_removed: list = dataclasses.field(default_factory=list)
    serialized: list = dataclasses.field(default_factory=list)
    rejected: list = dataclasses.field(default_factory=list)
    tiled: list = dataclasses.field(default_factory=list)
    #: pass name -> wall-clock seconds spent in its ``run``.
    pass_seconds: dict = dataclasses.field(default_factory=dict)

    def summary(self):
        return {
            "fused": len(self.fused),
            "syncs_removed": len(self.syncs_removed),
            "serialized": len(self.serialized),
            "tiled": len(self.tiled),
        }

    def copy(self):
        """A report whose lists a later pass can extend without touching
        this one's."""
        return dataclasses.replace(
            self,
            fused=list(self.fused),
            syncs_removed=list(self.syncs_removed),
            serialized=list(self.serialized),
            rejected=list(self.rejected),
            tiled=list(self.tiled),
            pass_seconds=dict(self.pass_seconds),
        )

    def rejection_counts(self):
        """pass name -> number of recorded rejections (0 for clean runs)."""
        counts = {name: 0 for name in self.pass_seconds}
        for pass_name, _subject, _reason in self.rejected:
            counts[pass_name] = counts.get(pass_name, 0) + 1
        return counts

    def describe(self):
        lines = [f"{self.level.flag} optimization of plan {self.plan_name!r}:"]
        for headers in self.fused:
            lines.append(f"  fused      {'+'.join(headers)}")
        for header, kind, uid in self.syncs_removed:
            lines.append(f"  sync-drop  {kind} @{header} (annotation {uid})")
        for label, cost, override in self.serialized:
            lines.append(f"  serialize  {label} cost={cost} -> {override}")
        for label, tile in self.tiled:
            lines.append(f"  tile       {label} tile={tile}")
        for pass_name, subject, reason in self.rejected:
            lines.append(f"  rejected   [{pass_name}] {subject}: {reason}")
        if len(lines) == 1:
            lines.append("  (no transforms applied)")
        return "\n".join(lines)


class PassManager:
    """Runs a pass pipeline over one plan within one context."""

    def __init__(self, passes):
        self.passes = tuple(passes)

    def run(self, ctx, plan, report):
        for pass_ in self.passes:
            start = time.perf_counter()
            plan = pass_.run(ctx, plan, report)
            elapsed = time.perf_counter() - start
            report.pass_seconds[pass_.name] = (
                report.pass_seconds.get(pass_.name, 0.0) + elapsed
            )
        return plan


#: Pass pipeline per level.  O1 is the "local" tier (nothing moves code
#: across loops); O2 adds region fusion.  Fusion runs first so merged
#: regions are costed — and kept parallel — as wholes.  O3 adds
#: machine-model tiling, last, so it sizes the final region shapes.
PIPELINES = {
    OptLevel.O0: (),
    OptLevel.O1: (SyncEliminationPass, SmallRegionSerializationPass),
    OptLevel.O2: (
        RegionFusionPass,
        SyncEliminationPass,
        SmallRegionSerializationPass,
    ),
    OptLevel.O3: (
        RegionFusionPass,
        SyncEliminationPass,
        SmallRegionSerializationPass,
        TilingPass,
    ),
}


#: The passes whose decisions read the machine model and the measured
#: feedback.  They close every pipeline, so optimizing a plan splits in
#: two: :func:`restructure_plan` runs the passes that read only the
#: graphs (fusion, sync elimination), :func:`price_plan` the ones that
#: price the result.  A calibrating session re-prices after each
#: observation and keeps its restructured plans.
PRICING_PASSES = (SmallRegionSerializationPass, TilingPass)


def passes_for(level):
    return tuple(pass_cls() for pass_cls in PIPELINES[OptLevel.coerce(level)])


def seed_regions(ctx, plan):
    """One single-loop descriptor per executable DOALL loop (CFG order)."""
    return plan.with_regions(
        RegionDescriptor(headers=(header,))
        for header in executable_doall_headers(plan, ctx.analyses.loops)
    )


@dataclasses.dataclass
class OptimizationResult:
    """An optimized plan plus the report of how it got that way."""

    plan: object
    report: OptReport
    level: OptLevel


def restructure_plan(pspdg, plan, level):
    """Seed ``plan``'s regions and run the ``level`` passes that read only
    the graphs; never mutates the input.  :func:`price_plan` finishes
    the pipeline."""
    level = OptLevel.coerce(level)
    # No machine: a pass that prices regions has no business here.
    ctx = OptContext(pspdg, None)
    report = OptReport(level=level, plan_name=plan.name)
    passes = [
        pass_ for pass_ in passes_for(level)
        if not isinstance(pass_, PRICING_PASSES)
    ]
    restructured = PassManager(passes).run(
        ctx, seed_regions(ctx, plan), report
    )
    return OptimizationResult(plan=restructured, report=report, level=level)


def price_plan(
    pspdg, restructured, machine=None, payload_bytes=None,
    compile_regions=False, compiled_speedup=None,
):
    """Run the pricing passes of ``restructured``'s level over its plan.

    ``restructured`` is a :func:`restructure_plan` result; it is never
    mutated, so one restructured plan can be priced again for another
    machine.  ``payload_bytes`` optionally maps region labels to measured
    bytes-on-wire from a previous run (the runtime's ``payload_bytes``
    stat); the small-region serialization pass folds it into the machine
    model's dispatch-cost bar.  ``compiled_speedup`` maps the same labels
    to measured compiled-over-interpreted step-rate ratios, replacing the
    machine model's assumed ``compiled_speedup`` prior per region
    (``regionstats.region_feedback`` produces both).
    """
    level = restructured.level
    machine = machine if machine is not None else DEFAULT_MACHINE
    ctx = OptContext(pspdg, machine,
                     payload_bytes=payload_bytes,
                     compile_regions=compile_regions,
                     compiled_speedup=compiled_speedup)
    report = restructured.report.copy()
    passes = [
        pass_ for pass_ in passes_for(level)
        if isinstance(pass_, PRICING_PASSES)
    ]
    priced = PassManager(passes).run(ctx, restructured.plan, report)
    return OptimizationResult(plan=priced, report=report, level=level)
