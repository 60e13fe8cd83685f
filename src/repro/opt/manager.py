"""The pass manager: ``-O`` levels over (PS-PDG, ProgramPlan).

``optimize_plan`` is the single entry point: it seeds the plan's region
descriptors (one per executable DOALL loop — byte-for-byte the runtime's
historical dispatch set, so ``-O0`` is exactly the legacy behavior),
then runs the level's pass pipeline, each pass rewriting the region list
under the legality predicates of :mod:`repro.opt.legality`.  The result
carries both the rewritten plan and an :class:`OptReport` the CLI's
``report`` subcommand and the test suite consume.
"""

import dataclasses
import time

from repro.opt.context import OptContext
from repro.opt.fusion import RegionFusionPass, SkewedRegionFusionPass
from repro.opt.interchange import LoopInterchangePass
from repro.opt.levels import OptLevel
from repro.opt.serialize import SmallRegionSerializationPass
from repro.opt.speculate import SpeculationValidationPass
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
    interchanged: list = dataclasses.field(default_factory=list)
    skewed: list = dataclasses.field(default_factory=list)
    tiled: list = dataclasses.field(default_factory=list)
    speculated: list = dataclasses.field(default_factory=list)
    validated: list = dataclasses.field(default_factory=list)
    vetoed: list = dataclasses.field(default_factory=list)
    #: pass name -> wall-clock seconds spent in its ``run``.
    pass_seconds: dict = dataclasses.field(default_factory=dict)

    def summary(self):
        return {
            "fused": len(self.fused),
            "syncs_removed": len(self.syncs_removed),
            "serialized": len(self.serialized),
            "interchanged": len(self.interchanged),
            "skewed": len(self.skewed),
            "tiled": len(self.tiled),
            "speculated": len(self.speculated),
            "vetoed": len(self.vetoed),
        }

    def rejections_for(self, pass_name):
        return [entry for entry in self.rejected if entry[0] == pass_name]

    def rejection_counts(self):
        """pass name -> number of recorded rejections (0 for clean runs)."""
        counts = {name: 0 for name in self.pass_seconds}
        for pass_name, _subject, _reason in self.rejected:
            counts[pass_name] = counts.get(pass_name, 0) + 1
        return counts

    def describe(self):
        lines = [f"{self.level.flag} optimization of plan {self.plan_name!r}:"]
        for outer, inner in self.interchanged:
            lines.append(f"  interchange {outer}/{inner}")
        for headers, shifts in self.skewed:
            lines.append(
                f"  skew-fuse  {'+'.join(headers)} "
                f"shifts={','.join(str(s) for s in shifts)}"
            )
        for headers in self.fused:
            lines.append(f"  fused      {'+'.join(headers)}")
        for header, kind, uid in self.syncs_removed:
            lines.append(f"  sync-drop  {kind} @{header} (annotation {uid})")
        for label, cost, override in self.serialized:
            lines.append(f"  serialize  {label} cost={cost} -> {override}")
        for label, tile in self.tiled:
            lines.append(f"  tile       {label} tile={tile}")
        for pass_name, outer, inner in self.speculated:
            lines.append(f"  speculate  [{pass_name}] {outer}/{inner}")
        for label, pass_name in self.validated:
            lines.append(f"  validated  {label} ({pass_name}, oracle agreed)")
        for pass_name, label, reason in self.vetoed:
            lines.append(f"  vetoed     [{pass_name}] {label}: {reason}")
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
#: regions are costed — and kept parallel — as wholes.  O3 adds loop
#: interchange (before fusion: a nest region must not be absorbed),
#: skew-enabled fusion, and the oracle-validation gate for speculative
#: transforms; serialization and machine-model tiling run *after* the
#: gate so they cost the final post-veto region shapes — a vetoed nest
#: reverts to the tiny inner loop, which must still be serialized away
#: exactly as -O2 would.
PIPELINES = {
    OptLevel.O0: (),
    OptLevel.O1: (SyncEliminationPass, SmallRegionSerializationPass),
    OptLevel.O2: (
        RegionFusionPass,
        SyncEliminationPass,
        SmallRegionSerializationPass,
    ),
    OptLevel.O3: (
        LoopInterchangePass,
        SkewedRegionFusionPass,
        SyncEliminationPass,
        SpeculationValidationPass,
        SmallRegionSerializationPass,
        TilingPass,
    ),
}


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


def optimize_plan(
    pspdg, plan, level, machine=None, payload_bytes=None,
    compile_regions=False, compiled_speedup=None, speculate=True,
    oracle=None,
):
    """Run the ``level`` pipeline over ``plan``; never mutates the input.

    ``pspdg`` carries everything the passes analyse: its sequential PDG
    (``pspdg.pdg``) and, through it, the function's analysis record.
    ``payload_bytes`` optionally maps region labels to measured
    bytes-on-wire from a previous run (the runtime's ``payload_bytes``
    stat); the small-region serialization pass folds it into the
    machine model's dispatch-cost bar.
    ``compiled_speedup`` maps the same labels to measured compiled-over-
    interpreted step-rate ratios, replacing the machine model's assumed
    ``compiled_speedup`` prior per region
    (``regionstats.region_feedback`` produces both).
    ``speculate`` lets ``-O3`` passes apply transforms whose static
    legality test is inconclusive, for the oracle-validation pass to
    confirm or veto; off, inconclusive tests reject outright.
    ``oracle`` is a dict the validation pass memoizes its verdicts in,
    per speculative region set: pass the same one to every call that
    optimizes a plan of this ``pspdg`` and the oracle runs once per set
    instead of once per plan.
    """
    level = OptLevel.coerce(level)
    machine = machine if machine is not None else DEFAULT_MACHINE
    ctx = OptContext(pspdg, machine,
                     payload_bytes=payload_bytes,
                     compile_regions=compile_regions,
                     compiled_speedup=compiled_speedup,
                     speculate=speculate, oracle=oracle)
    report = OptReport(level=level, plan_name=plan.name)
    seeded = seed_regions(ctx, plan)
    optimized = PassManager(passes_for(level)).run(ctx, seeded, report)
    return OptimizationResult(plan=optimized, report=report, level=level)
