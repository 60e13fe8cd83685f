"""Plan -> runtime recipes: what each dispatched loop needs to run.

The planner decides *which* loops run as DOALLs; this module derives,
from the PS-PDG, *how* the runtime must treat each one's variables —
privatized, firstprivate/lastprivate, reduced, or left shared — and
packages the optimizer's :class:`~repro.planner.plans.RegionDescriptor`
entries as the :class:`RegionParallelization` records the executor
dispatches.  It lives with the planner, not the execution engine: the
side conditions of a parallelization are re-derived from the graph by
the code that plans, and the ``repro.opt`` passes ask the same
questions of the same analysis record (``pspdg.pdg.analyses``) when
judging fusion and sync-elimination legality.
"""

import dataclasses

from repro.analysis.reductions import update_op
from repro.core.builder import loop_context_label
from repro.frontend.directives import REDUCTION_OPS
from repro.ir.values import Argument
from repro.planner.plans import OVERRIDE_SEQUENTIAL, TECH_DOALL
from repro.util.errors import PlanError


@dataclasses.dataclass(frozen=True)
class LoopParallelization:
    """Execution recipe for one DOALL loop; frozen, so a changed recipe
    is a new one (``dataclasses.replace``).

    Attributes:
        header: loop header block name.
        privatized: storages (Alloca/GlobalVariable) given fresh
            per-worker copies.
        firstprivate: storages copied from the shared value per worker.
        lastprivate: storages whose final-iteration private value is
            written back at the join.
        reductions: (storage, op-name) pairs merged at the join.
        chunk: scheduler chunk size (iterations per contiguous chunk), a
            positive integer.
    """

    header: str
    privatized: tuple = ()
    firstprivate: tuple = ()
    lastprivate: tuple = ()
    reductions: tuple = ()
    chunk: int = 1

    def __post_init__(self):
        for name in ("privatized", "firstprivate", "lastprivate",
                     "reductions"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        chunk = self.chunk
        if not isinstance(chunk, int) or isinstance(chunk, bool) or chunk < 1:
            raise PlanError(
                f"loop {self.header}: chunk size must be a positive "
                f"integer, got {chunk!r}"
            )


@dataclasses.dataclass(frozen=True)
class RegionParallelization:
    """One planned parallel region: one or more fused member loops.

    The runtime's unit of execution since the ``repro.opt`` pipeline:
    every worker receives the same iteration chunk for every member and
    runs the members back-to-back (fusion legality guarantees identical
    iteration spaces and worker-aligned cross-member dependences).  The
    runtime prepares it once
    (:class:`repro.runtime.executor.PreparedRegion`); the plan record
    itself holds nothing of a run.

    Attributes:
        recipes: member :class:`LoopParallelization` in control-flow
            order (a single entry for an unfused loop).
        backend_override: ``"threads"`` reroutes this region off the
            process pool (small-region serialization); ``None`` runs on
            the configured backend.  (``"sequential"`` regions are never
            materialized: ``recipes_from_plan`` drops them from the
            dispatch set, so no run ever meets that override.)
        removed_sync_uids: annotation uids whose critical/atomic locks
            are elided for this region (sync elimination).
        tile: minimum iterations per payload (tiling); the runtime caps
            the effective worker count at ``ceil(trip / tile)`` and
            pads the rest with empty chunks.
    """

    recipes: tuple
    backend_override: str = None
    removed_sync_uids: frozenset = frozenset()
    tile: int = None

    def __post_init__(self):
        object.__setattr__(self, "recipes", tuple(self.recipes))

    @property
    def header(self):
        """The block whose arrival triggers the takeover."""
        return self.recipes[0].header

    @property
    def headers(self):
        return tuple(recipe.header for recipe in self.recipes)

    @property
    def label(self):
        return "+".join(self.headers)

    @property
    def fused(self):
        return len(self.recipes) > 1


def as_region(parallelization):
    """Wrap a bare :class:`LoopParallelization` as a one-member region."""
    if isinstance(parallelization, LoopParallelization):
        return RegionParallelization(recipes=(parallelization,))
    return parallelization


def parallelization_from_annotation(annotation, function):
    """Build a :class:`LoopParallelization` from a worksharing annotation."""
    clauses = annotation.directive.clauses
    return LoopParallelization(
        header=annotation.loop_header,
        privatized=[annotation.binding(name) for name in clauses.private],
        firstprivate=[
            annotation.binding(name) for name in clauses.firstprivate
        ],
        lastprivate=[
            annotation.binding(name) for name in clauses.lastprivate
        ],
        reductions=[
            (annotation.binding(name), REDUCTION_OPS[op])
            for op, name in clauses.reductions
        ],
        chunk=(clauses.schedule and clauses.schedule[1]) or 1,
    )


def recipes_from_annotations(function):
    """The developer's OpenMP plan: one recipe per worksharing annotation."""
    return tuple(
        parallelization_from_annotation(annotation, function)
        for annotation in function.annotations
        if annotation.directive.declares_loop_independence()
        and annotation.loop_header is not None
    )


# -- PS-PDG -> runtime recipe ---------------------------------------------------
#
# The PS-PDG says which variables *may* be privatized or reduced in a
# loop's context; the runtime must decide what each planned loop actually
# *needs* so that discarding private copies never loses state the
# sequential program observes.  (The differential conformance suite caught
# exactly this on IS: eagerly privatizing the threadprivate buffer ``prv``
# in every planned loop dropped the ranking counts that the sequential
# prefix-sum loop reads afterwards.)


def parallelization_from_pspdg(pspdg, loop):
    """Build an execution recipe from the PS-PDG's variables for a loop.

    ``loop`` is one of the graph's own loops (``pspdg.pdg.analyses.loops``).

    For each variable the PS-PDG places in the loop's context chain:

    * context-reducible variables are merged as reductions;
    * variables not live-out of the loop get discardable private copies;
    * live-out variables whose only in-loop accesses are commutative
      ``x = x op e`` updates are reduced (identity-seeded, join-merged);
    * live-out variables with no loop-carried dependence stay shared —
      their per-iteration writes are disjoint, so shared storage
      reproduces the sequential state exactly;
    * remaining live-out variables (per-iteration scratch with a carried
      WAW/WAR) are privatized with firstprivate seeding and lastprivate
      write-back: the final iteration's state is the sequential one.

    In every case a plan the planner should not have chosen stays
    detectable: the ``simulated`` oracle exposes residual races as
    cross-seed nondeterminism.
    """
    analyses = pspdg.pdg.analyses
    label = loop_context_label(loop.header.name)
    chain = set(pspdg.context_chain(label))
    # Worksharing annotations on this loop contribute their uid contexts.
    for annotation in pspdg.function.annotations:
        if annotation.loop_header == loop.header.name:
            chain.add(annotation.uid)

    privatized, shared_seeded, reductions = [], [], []
    seen = set()
    for variable in pspdg.variables:
        if variable.context not in chain:
            continue
        if id(variable.storage) in seen:
            continue
        seen.add(id(variable.storage))
        if isinstance(variable.storage, Argument):
            # The runtime cannot privatize argument-aliased storage
            # (no allocated_type, and frame.args pointers would keep
            # aiming at the shared object): leave it shared; the
            # simulated oracle exposes plans that needed more.
            continue
        if variable.is_reducible():
            reductions.append(
                (variable.storage, REDUCTION_OPS.get(
                    variable.reducer_op, variable.reducer_op
                ))
            )
            continue
        obj = analyses.storage_object(variable.storage)
        in_loop = analyses.loop_accesses(loop).get(obj, ())
        if not any(access.is_write for access in in_loop):
            continue  # read-only here: keep it shared
        if obj not in analyses.live_out(loop):
            privatized.append(variable.storage)
            continue
        op = update_op(in_loop)
        if op is not None:
            # Identity-seeded per-worker copies merged at the join are
            # correct whether or not iterations actually collide, so
            # this outranks the (sequential, symbol-level) carried test —
            # which calls ``p[k] op= e`` with an indirect ``k`` distance-0.
            reductions.append((variable.storage, op))
            continue
        if obj not in analyses.carried_at(loop):
            # Iteration-disjoint accesses (e.g. ``p[i] = 0``): shared
            # storage reproduces the sequential state exactly.
            continue
        shared_seeded.append(variable.storage)
    return LoopParallelization(
        header=loop.header.name,
        privatized=privatized,
        firstprivate=shared_seeded,
        lastprivate=shared_seeded,
        reductions=reductions,
    )


def executable_doall_headers(plan, loops):
    """Headers the runtime dispatches for a region-less ``plan``, in
    control-flow order: canonical-form DOALL loops not nested inside
    another planned canonical DOALL loop (the outer takeover runs those).
    ``loops`` are the function's natural loops, outermost first.
    """

    def inside_planned_parent(loop):
        parent = loop.parent
        while parent is not None:
            parent_plan = plan.plan_for(parent.header.name)
            if (
                parent_plan is not None
                and parent_plan.technique == TECH_DOALL
                and parent.canonical is not None
            ):
                return True
            parent = parent.parent
        return False

    headers = []
    for loop in loops:
        loop_plan = plan.plan_for(loop.header.name)
        if loop_plan is None or loop_plan.technique != TECH_DOALL:
            continue
        if loop.canonical is None or inside_planned_parent(loop):
            continue
        headers.append(loop.header.name)
    return headers


def recipes_from_plan(pspdg, plan):
    """Execution regions for every dispatched loop of ``plan``, as a
    tuple of :class:`RegionParallelization`.

    When the plan carries optimizer-produced :class:`RegionDescriptor`
    entries, they are authoritative: fused regions become multi-member
    :class:`RegionParallelization` recipes, ``"sequential"``-overridden
    regions are dropped (the base interpreter runs those loops), and
    removed-sync/backend-override markers are carried through to the
    dispatch.  A plan without regions gets the historical one region per
    canonical-form DOALL loop (HELIX/DSWP stay analytical-only; loops
    nested inside another planned DOALL are executed by the outer
    takeover).
    """
    analyses = pspdg.pdg.analyses
    loops = analyses.loops_by_header

    def recipe_for(header):
        return parallelization_from_pspdg(pspdg, loops[header])

    if plan.regions:
        regions = []
        for descriptor in plan.regions:
            if descriptor.backend_override == OVERRIDE_SEQUENTIAL:
                continue
            if not all(
                header in loops and loops[header].canonical is not None
                for header in descriptor.headers
            ):
                continue
            regions.append(
                RegionParallelization(
                    recipes=tuple(map(recipe_for, descriptor.headers)),
                    backend_override=descriptor.backend_override,
                    removed_sync_uids=descriptor.removed_sync_uids,
                    tile=descriptor.tile,
                )
            )
        return tuple(regions)

    return tuple(
        RegionParallelization(recipes=(recipe_for(header),))
        for header in executable_doall_headers(plan, analyses.loops)
    )
