"""Plan -> runtime recipes: what each dispatched loop needs to run.

The planner decides *which* loops run as DOALLs; this module derives,
from the PS-PDG, *how* the runtime must treat each one's variables —
privatized, firstprivate/lastprivate, reduced, or left shared — once
per graph and loop (:func:`loop_recipe`).  The optimizer's
:class:`~repro.planner.plans.RegionDescriptor` carries its members'
recipes from the moment it is seeded to the moment the runtime
prepares it.  It lives with the planner, not the execution engine: the
side conditions of a parallelization are derived from the graph by
the code that plans, and the ``repro.opt`` passes ask the same
questions of the same analysis record (``pspdg.pdg.analyses``) when
judging fusion and sync-elimination legality.
"""

import dataclasses
import weakref

from repro.analysis.reductions import update_op
from repro.core.builder import loop_context_label
from repro.frontend.directives import REDUCTION_OPS
from repro.ir.values import Argument
from repro.planner.plans import RegionDescriptor
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
    """The developer's OpenMP plan: one single-loop region per
    worksharing annotation."""
    return tuple(
        RegionDescriptor(
            recipes=(parallelization_from_annotation(annotation, function),)
        )
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


#: PS-PDG -> header name -> its loop's recipe; an entry lives as long
#: as its graph (a session's).
_RECIPES = weakref.WeakKeyDictionary()


def loop_recipe(pspdg, header):
    """The recipe of ``pspdg``'s loop at block ``header``, derived once
    per graph and loop however many plans, levels and passes ask."""
    memo = _RECIPES.setdefault(pspdg, {})
    recipe = memo.get(header)
    if recipe is None:
        recipe = memo[header] = parallelization_from_pspdg(
            pspdg, pspdg.pdg.analyses.loops_by_header[header]
        )
    return recipe
