"""Parallelization plans: which loops run how.

A :class:`LoopPlan` fixes the technique for one static loop (DOALL, HELIX,
DSWP, or sequential) together with the uid partitions the critical-path
model needs: lock-serialized (orderless) work, sequential-segment work, and
DSWP stage groups.  A :class:`ProgramPlan` maps loop headers to plans;
unlisted loops run sequentially.

A plan may additionally carry :class:`RegionDescriptor` entries — the
unit the optimization passes (:mod:`repro.opt`) rewrite and the runtime
dispatches.  A fresh plan has no regions; ``repro.opt.restructure_plan``
seeds one region per executable DOALL loop and fuses them or strips
their redundant synchronization, and ``repro.opt.price_plan``
serializes them.  A run prepares :meth:`ProgramPlan.dispatched`, so a
plan reaches the runtime only seeded.
"""

import dataclasses

from repro.frontend.directives import LOOP_INDEPENDENCE_KINDS
from repro.planner.classify import classify_loop

TECH_SEQ = "SEQ"
TECH_DOALL = "DOALL"
TECH_HELIX = "HELIX"
TECH_DSWP = "DSWP"


@dataclasses.dataclass
class LoopPlan:
    """Technique + work partitions for one loop."""

    technique: str
    serialized_uids: frozenset = frozenset()  # orderless mutual exclusion
    sequential_uids: frozenset = frozenset()  # HELIX sequential segments
    stage_groups: tuple = ()  # DSWP stages (uid frozensets)


#: ``RegionDescriptor.backend_override`` values the runtime honors.
OVERRIDE_SEQUENTIAL = "sequential"
OVERRIDE_THREADS = "threads"


@dataclasses.dataclass(frozen=True)
class RegionDescriptor:
    """One runtime dispatch unit: one or more fused DOALL loops.

    The one plan-side region record: ``repro.opt.seed_regions`` creates
    it, the ``-O`` passes rewrite it (``dataclasses.replace``), and
    ``repro.runtime.executor.prepare_plan`` binds it to its function as
    the record a run dispatches.

    Attributes:
        recipes: member :class:`~repro.planner.recipes.LoopParallelization`
            recipes in control-flow order (>= 1; more than one after
            parallel-region fusion); ``headers`` are theirs.
        backend_override: ``None`` (run on the configured backend),
            ``"sequential"`` (small-region serialization: the loop is not
            dispatched at all and runs on the sequential interpreter), or
            ``"threads"`` (dispatch, but never pay process-pool pickling).
        removed_sync_uids: annotation uids of ``critical``/``atomic``
            regions proven redundant at this region's loop level; the
            runtime elides their locks.
        tile: set by the tiling pass — the minimum iterations one
            payload should carry; the runtime caps the worker count at
            ``ceil(trip / tile)`` so small iteration spaces stop paying
            per-payload overhead for near-empty chunks.
        witness: human-readable evidence for the side condition — the
            dependence pair a legality predicate proved aligned.  Not
            dispatched, so two descriptors differing only here are equal.
    """

    recipes: tuple
    backend_override: str = None
    removed_sync_uids: frozenset = frozenset()
    tile: int = None
    witness: str = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "recipes", tuple(self.recipes))

    @property
    def headers(self):
        return tuple(recipe.header for recipe in self.recipes)

    @property
    def label(self):
        return "+".join(self.headers)

    def describe(self):
        parts = [self.label, TECH_DOALL]
        if self.tile:
            parts.append(f"tile={self.tile}")
        if self.backend_override:
            parts.append(f"->{self.backend_override}")
        if self.removed_sync_uids:
            parts.append(f"sync-removed={len(self.removed_sync_uids)}")
        return " ".join(parts)


@dataclasses.dataclass
class ProgramPlan:
    """A full plan for one profiled function."""

    name: str
    loop_plans: dict  # header name -> LoopPlan
    loop_uids: dict  # header name -> frozenset of uids inside the loop
    regions: tuple = ()  # RegionDescriptor dispatch units (opt output)

    def plan_for(self, header_name):
        return self.loop_plans.get(header_name)

    def with_loop_plan(self, header_name, loop_plan):
        # Changing a loop's technique invalidates any derived regions.
        plans = dict(self.loop_plans)
        plans[header_name] = loop_plan
        return ProgramPlan(self.name, plans, self.loop_uids)

    def with_regions(self, regions):
        return ProgramPlan(
            self.name, self.loop_plans, self.loop_uids, tuple(regions)
        )

    def dispatched(self):
        """The regions a run dispatches: all but the sequential ones,
        which the base interpreter runs."""
        return tuple(
            region for region in self.regions
            if region.backend_override != OVERRIDE_SEQUENTIAL
        )

    def describe(self):
        lines = [f"plan {self.name}:"]
        for header in sorted(self.loop_plans):
            plan = self.loop_plans[header]
            lines.append(f"  {header}: {plan.technique}")
        if self.regions:
            lines.append("  regions:")
            for region in self.regions:
                lines.append(f"    {region.describe()}")
        return "\n".join(lines)


def loop_uid_map(loops):
    """header name -> frozenset of instruction uids inside that loop."""
    return {
        loop.header.name: frozenset(
            inst.uid for inst in loop.instructions()
        )
        for loop in loops
    }


def region_uids(function, kinds):
    """uids of instructions inside directive regions of the given kinds."""
    block_names = set()
    for annotation in function.annotations:
        if annotation.directive.kind in kinds:
            block_names.update(annotation.block_names)
    uids = set()
    for block in function.blocks:
        if block.name in block_names:
            uids.update(inst.uid for inst in block.instructions)
    return frozenset(uids)


def openmp_source_plan(function, uid_map):
    """The plan the programmer encoded (paper: the baseline of Fig. 14).

    Worksharing-annotated loops run as DOALL with their critical/atomic/
    ordered work serialized across iterations; everything else runs
    sequentially (redundant `parallel`-region execution costs the same as
    one copy on the ideal machine, which the sequential profile already
    reflects).  ``uid_map`` is the :func:`loop_uid_map` of ``function``'s
    natural loops.
    """
    sync_uids = region_uids(function, {"critical", "atomic", "ordered"})
    loop_plans = {}
    for annotation in function.annotations:
        if (
            annotation.directive.kind in LOOP_INDEPENDENCE_KINDS
            and annotation.loop_header is not None
        ):
            loop_uids = uid_map.get(annotation.loop_header, frozenset())
            loop_plans[annotation.loop_header] = LoopPlan(
                TECH_DOALL, serialized_uids=sync_uids & loop_uids
            )
    return ProgramPlan("OpenMP", loop_plans, uid_map)


def technique_plan(classification, technique):
    """A :class:`LoopPlan` realizing ``technique`` for a classified loop."""
    if technique == TECH_DOALL:
        return LoopPlan(
            TECH_DOALL, serialized_uids=classification.serialized_uids
        )
    if technique == TECH_HELIX:
        return LoopPlan(
            TECH_HELIX,
            serialized_uids=classification.serialized_uids,
            sequential_uids=classification.sequential_uids(),
        )
    if technique == TECH_DSWP:
        return LoopPlan(
            TECH_DSWP,
            stage_groups=tuple(scc.uids for scc in classification.sccs),
        )
    return LoopPlan(TECH_SEQ)


def candidate_techniques(classification):
    """Techniques the paper's methodology considers for a classified loop."""
    if classification.doall_legal:
        return [TECH_DOALL]
    techniques = [TECH_SEQ, TECH_HELIX]
    if len(classification.sccs) >= 2:
        techniques.append(TECH_DSWP)
    return techniques


def abstraction_plan(
    name,
    function,
    view,
    evaluator_factory,
    loops,
    uid_map,
    hierarchical_inner,
    plan_all_loops=False,
):
    """Best plan available to one abstraction (paper §6.3 methodology).

    Every *outermost* loop is parallelized with the technique (among those
    the view's SCCs permit) that minimizes the ideal-machine critical
    path; on a tie the first of SEQ, HELIX, DSWP wins.  With
    ``hierarchical_inner`` (J&K and PS-PDG), inner developer-annotated
    loops additionally run their source plan.  With ``plan_all_loops``
    (PS-PDG only), *every* loop — annotated or not — is considered,
    innermost first: "the compiler is able to consider all loops which
    meet the parallelization requirements while the programmer-encoded
    parallelization is static" (§6.2).

    ``loops`` are ``function``'s natural loops and ``uid_map`` their
    :func:`loop_uid_map`.  ``evaluator_factory(plan)`` prices a plan
    (``evaluate()``) and derives the evaluator of a one-loop variation
    (``with_loop_plan``), so a trial re-prices only what contains its loop.
    Returns the plan and its critical path (the winning trial's price).
    """
    base_plans = {}
    if hierarchical_inner:
        base_plans.update(openmp_source_plan(function, uid_map).loop_plans)

    evaluator = evaluator_factory(ProgramPlan(name, base_plans, uid_map))
    # Price the base plan first, so even the first loop's trials start
    # from its results.
    cost = evaluator.evaluate()
    if plan_all_loops:
        # Innermost-first so outer-loop decisions see inner parallelism.
        candidates = sorted(loops, key=lambda lp: -lp.depth)
    else:
        candidates = [loop for loop in loops if loop.parent is None]
    for loop in candidates:
        classification = classify_loop(view, loop)
        best = None
        for technique in candidate_techniques(classification):
            trial = evaluator.with_loop_plan(
                loop.header.name, technique_plan(classification, technique)
            )
            trial_cost = trial.evaluate()
            if best is None or trial_cost < best[0]:
                best = (trial_cost, trial)
        cost, evaluator = best
    return evaluator.plan, cost
