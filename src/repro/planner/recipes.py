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


@dataclasses.dataclass
class LoopParallelization:
    """Execution recipe for one DOALL loop.

    Attributes:
        header: loop header block name.
        privatized: list of storages (Alloca/GlobalVariable) given fresh
            per-worker copies.
        firstprivate: storages copied from the shared value per worker.
        lastprivate: storages whose final-iteration private value is
            written back at the join.
        reductions: list of (storage, op-name) merged at the join.
        chunk: scheduler chunk size (iterations per contiguous chunk).
    """

    header: str
    privatized: list = dataclasses.field(default_factory=list)
    firstprivate: list = dataclasses.field(default_factory=list)
    lastprivate: list = dataclasses.field(default_factory=list)
    reductions: list = dataclasses.field(default_factory=list)
    chunk: int = 1


@dataclasses.dataclass
class RegionParallelization:
    """One dispatched parallel region: one or more fused member loops.

    The runtime's unit of execution since the ``repro.opt`` pipeline:
    every worker receives the same iteration chunk for every member and
    runs the members back-to-back (fusion legality guarantees identical
    iteration spaces and worker-aligned cross-member dependences).

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
        prepared: the runtime's dispatch record for this region
            (:class:`repro.runtime.executor._PreparedRegion`), built on
            its first dispatch and rebuilt when what it was built from
            changes; never part of the region's identity.
    """

    recipes: list
    backend_override: str = None
    removed_sync_uids: frozenset = frozenset()
    tile: int = None
    prepared: object = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

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

    def merged_recipe(self):
        """Union of the members' privatization/reduction sets.

        Reductions dedupe by (storage, op): members sharing a same-op
        reduction accumulate into one per-worker copy, merged once at
        the join (commutativity makes the grouping unobservable).
        """
        merged = LoopParallelization(header=self.label,
                                     chunk=self.recipes[0].chunk)
        seen = {}
        for recipe in self.recipes:
            for attr in ("privatized", "firstprivate", "lastprivate"):
                for storage in getattr(recipe, attr):
                    bucket = seen.setdefault(attr, set())
                    if id(storage) not in bucket:
                        bucket.add(id(storage))
                        getattr(merged, attr).append(storage)
            for storage, op in recipe.reductions:
                bucket = seen.setdefault("reductions", set())
                if (id(storage), op) not in bucket:
                    bucket.add((id(storage), op))
                    merged.reductions.append((storage, op))
        return merged


class RegionSet(list):
    """A plan's regions as a Session keeps them, and what a run over them
    would recheck: ``table`` (header -> region), the ``(schedule,
    chunk)`` pairs ``checked``, and per function its ``stops``
    (:func:`repro.codegen.seq.sequence_stops`).  A change of members
    drops them; a recipe edited in place is validated when re-prepared."""

    _members = None

    def memo(self):
        """This set, its ``table``, ``checked`` and ``stops`` current."""
        members = tuple(self)
        if members != self._members:
            self._members = members
            self.table = {region.header: region for region in members}
            self.checked = set()
            self.stops = {}
        return self


def as_region(parallelization):
    """Wrap a bare :class:`LoopParallelization` as a one-member region."""
    if isinstance(parallelization, RegionParallelization):
        return parallelization
    return RegionParallelization(recipes=[parallelization])


def parallelization_from_annotation(annotation, function):
    """Build a :class:`LoopParallelization` from a worksharing annotation."""
    clauses = annotation.directive.clauses
    recipe = LoopParallelization(header=annotation.loop_header)
    for name in clauses.private:
        recipe.privatized.append(annotation.binding(name))
    for name in clauses.firstprivate:
        recipe.firstprivate.append(annotation.binding(name))
    for name in clauses.lastprivate:
        recipe.lastprivate.append(annotation.binding(name))
    for op, name in clauses.reductions:
        recipe.reductions.append((annotation.binding(name), REDUCTION_OPS[op]))
    if clauses.schedule and clauses.schedule[1]:
        recipe.chunk = clauses.schedule[1]
    return recipe


def recipes_from_annotations(function):
    """The developer's OpenMP plan: one recipe per worksharing annotation."""
    return [
        parallelization_from_annotation(annotation, function)
        for annotation in function.annotations
        if annotation.directive.declares_loop_independence()
        and annotation.loop_header is not None
    ]


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

    recipe = LoopParallelization(header=loop.header.name)
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
            recipe.reductions.append(
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
            recipe.privatized.append(variable.storage)
            continue
        op = update_op(in_loop)
        if op is not None:
            # Identity-seeded per-worker copies merged at the join are
            # correct whether or not iterations actually collide, so
            # this outranks the (sequential, symbol-level) carried test —
            # which calls ``p[k] op= e`` with an indirect ``k`` distance-0.
            recipe.reductions.append((variable.storage, op))
            continue
        if obj not in analyses.carried_at(loop):
            # Iteration-disjoint accesses (e.g. ``p[i] = 0``): shared
            # storage reproduces the sequential state exactly.
            continue
        recipe.firstprivate.append(variable.storage)
        recipe.lastprivate.append(variable.storage)
    return recipe


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
    :class:`RegionSet`.

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
                    recipes=[recipe_for(h) for h in descriptor.headers],
                    backend_override=descriptor.backend_override,
                    removed_sync_uids=descriptor.removed_sync_uids,
                    tile=descriptor.tile,
                )
            )
        return RegionSet(regions)

    return RegionSet(
        RegionParallelization(recipes=[recipe_for(header)])
        for header in executable_doall_headers(plan, analyses.loops)
    )
