"""Legality predicates for the plan-rewriting passes.

Every transform here must preserve the *sequential* semantics of the
program, so each predicate is grounded in the sequential dependence
analyses (the PDG's memory edges and the affine subscript analysis they
were built from) — the PS-PDG's declared parallel semantics only ever
*enabled* the plan; it cannot justify reordering beyond what it states.

Fusion model: the runtime executes a fused region by giving each worker
the same iteration chunk for every member loop and running the members
back-to-back per worker with no barrier.  That is legal exactly when
every cross-member dependence stays within one worker, i.e. when each
dependence between member loops is *aligned* — source and destination
iterations have the same induction value — and the members share one
iteration space and one partition.  Dependences through storage that is
per-worker anyway (privatized scratch, same-operator reductions) are
also fine.  Everything else — unaligned affine subscripts, indirect
subscripts, scalars written by many iterations, console output — makes
fusion illegal here.
"""

from repro.analysis.alias import CONSOLE, AllocaObject
from repro.analysis.deptests import test_level
from repro.analysis.loops import loop_of_block
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    Compare,
    Instruction,
    Jump,
    Load,
    Print,
    Store,
    UnaryOp,
)
from repro.ir.values import Constant
from repro.opt.cost import static_trip_count
from repro.planner.plans import TECH_DOALL

#: Upper bound on the straight-line block chain between fused loops.
_MAX_INTERLOOP_BLOCKS = 16

_SYNC_KINDS = ("critical", "atomic")


class Legality:
    """Verdict of one predicate: truthy iff the transform is allowed.

    ``witness`` is the predicate's evidence — the dependence pair (or
    distance) that decided the verdict — stored on the rewritten
    descriptor so reports and tests can audit the side condition.  A
    test that can neither prove nor refute legality (non-affine
    subscript, unbounded range) says no, with the undecided pair as its
    reason.  ``shifts`` carries the per-member partition shifts
    skew-enabled fusion derived.
    """

    __slots__ = ("ok", "reason", "witness", "shifts")

    def __init__(self, ok, reason=None, witness=None, shifts=None):
        self.ok = ok
        self.reason = reason
        self.witness = witness
        self.shifts = shifts

    def __bool__(self):
        return self.ok

    @classmethod
    def yes(cls, witness=None, shifts=None):
        return cls(True, witness=witness, shifts=shifts)

    @classmethod
    def no(cls, reason, witness=None):
        return cls(False, reason, witness=witness)

    def __repr__(self):
        if self.ok:
            return "<Legality ok>"
        return f"<Legality no {self.reason!r}>"


# -- parallel-region fusion ------------------------------------------------------


def can_fuse(ctx, region_a, region_b, skew=False):
    """May ``region_b`` be appended to ``region_a`` as one dispatch?

    With ``skew`` the alignment requirement relaxes: a cross-member
    dependence at a uniform non-zero iv-space distance ``d`` is accepted
    by shifting ``region_b``'s partition so source and destination land
    on one worker.  The verdict's ``shifts`` then carries the merged
    region's per-member shifts.
    """
    if region_a.technique != TECH_DOALL or region_b.technique != TECH_DOALL:
        return Legality.no("only DOALL regions fuse")
    if region_a.backend_override or region_b.backend_override:
        return Legality.no("region already rebound to another backend")
    if region_a.outer_header or region_b.outer_header:
        return Legality.no("interchanged nest regions do not fuse")

    loops_a = [ctx.analyses.loops_by_header[h] for h in region_a.headers]
    loops_b = [ctx.analyses.loops_by_header[h] for h in region_b.headers]

    verdict = _same_iteration_space(loops_a + loops_b)
    if not verdict:
        return verdict
    verdict = _same_chunk(ctx, region_a.headers + region_b.headers)
    if not verdict:
        return verdict
    verdict = _adjacent(ctx, loops_a[-1], loops_b[0])
    if not verdict:
        return verdict
    return _cross_dependences_aligned(
        ctx, region_a.headers, region_b.headers,
        shifts_a=region_a.member_shifts or None, skew=skew,
    )


def _static_bounds(loop):
    canonical = loop.canonical
    if canonical is None:
        return None
    bounds = (canonical.lower, canonical.upper, canonical.step)
    if not all(isinstance(value, Constant) for value in bounds):
        return None
    return tuple(value.value for value in bounds)


def _same_iteration_space(loops):
    parents = {id(loop.parent) for loop in loops}
    if len(parents) != 1:
        return Legality.no("members nest in different parent loops")
    spaces = [_static_bounds(loop) for loop in loops]
    if any(space is None for space in spaces):
        return Legality.no("member bounds are not compile-time constants")
    if len(set(spaces)) != 1:
        return Legality.no(f"iteration spaces differ: {sorted(set(spaces))}")
    return Legality.yes()


def _same_chunk(ctx, headers):
    chunks = {ctx.recipe(header).chunk for header in headers}
    if len(chunks) != 1:
        return Legality.no(f"chunk sizes differ: {sorted(chunks)}")
    return Legality.yes()


def _adjacent(ctx, loop_a, loop_b):
    """Only trivial glue between A's exit and B's header.

    The fused takeover skips every instruction between the member loops,
    so the chain from A's canonical exit to B's header may contain only
    unconditional jumps plus B's induction-variable materialization (its
    ``alloca`` and the lower-bound seed ``store`` the per-worker frames
    re-do anyway).  Any other instruction, any branch, or any block owned
    by a loop that does not also contain both members breaks adjacency.
    """
    induction_b = loop_b.canonical.induction
    block = ctx.blocks_by_name.get(loop_a.canonical.exit)
    for _ in range(_MAX_INTERLOOP_BLOCKS):
        if block is None:
            return Legality.no("lost the interloop chain")
        if block is loop_b.header:
            return Legality.yes()
        if loop_of_block(ctx.analyses.loops, block) is not loop_a.parent:
            return Legality.no(
                f"interloop block {block.name} belongs to another loop"
            )
        for inst in block.instructions[:-1]:
            if isinstance(inst, Alloca) and inst is induction_b:
                continue
            if isinstance(inst, Store) and inst.pointer is induction_b:
                continue
            return Legality.no(
                f"interloop block {block.name} computes #{inst.uid}"
            )
        terminator = block.instructions[-1]
        if not isinstance(terminator, Jump):
            return Legality.no(
                f"interloop block {block.name} branches conditionally"
            )
        block = terminator.target
    return Legality.no("interloop chain too long")


def _reduction_op_for(ctx, recipe, obj):
    for storage, op in recipe.reductions:
        if ctx.analyses.storage_object(storage) == obj:
            return op
    return None


def _classify_private(ctx, recipe, obj):
    """How a recipe isolates ``obj`` per worker: 'reduction:<op>',
    'private', or None (shared)."""
    op = _reduction_op_for(ctx, recipe, obj)
    if op is not None:
        return f"reduction:{op}"
    for storage in recipe.privatized:
        if ctx.analyses.storage_object(storage) == obj:
            return "private"
    return None


def _member_classification(ctx, headers, obj):
    """Consistent per-worker classification across the members touching
    ``obj``, or ``"shared"``/``"mixed"``."""
    kinds = set()
    for header in headers:
        loop = ctx.analyses.loops_by_header[header]
        if obj not in ctx.analyses.loop_accesses(loop):
            continue
        kinds.add(_classify_private(ctx, ctx.recipe(header), obj))
    if not kinds:
        return None
    if len(kinds) > 1:
        return "mixed"
    kind = kinds.pop()
    return kind if kind is not None else "shared"


def _induction_objects(ctx, headers):
    objects = set()
    for header in headers:
        loop = ctx.analyses.loops_by_header[header]
        objects.add(ctx.analyses.storage_object(loop.canonical.induction))
    return objects


#: ``_pair_shift`` result for slot sets that can never collide.
_DISJOINT = object()


def _pair_shift(loop_src, offset_src, loop_dst, offset_dst):
    """Relative partition shift keeping this dependence on one worker.

    Offsets must be affine in exactly their own member induction with
    one shared non-zero coefficient ``a``; then dst iteration ``j``
    touches the slot src iteration ``i = j + (c_dst - c_src) / a``
    touched, so assigning dst values from the base chunk shifted by
    ``S_dst = S_src + (c_dst - c_src) / a`` keeps the pair worker-local.
    Returns that relative shift (an int; 0 is classic alignment),
    ``_DISJOINT`` when the slot sets cannot intersect, or ``None`` when
    the subscripts are outside this form entirely.
    """
    if offset_src is None or offset_dst is None:
        return None
    iv_src = loop_src.canonical.induction
    iv_dst = loop_dst.canonical.induction
    if set(offset_src.coefficients) != {iv_src}:
        return None
    if set(offset_dst.coefficients) != {iv_dst}:
        return None
    a = offset_src.coefficient(iv_src)
    if a == 0 or a != offset_dst.coefficient(iv_dst):
        return None
    delta = offset_dst.constant - offset_src.constant
    if delta % a != 0:
        return _DISJOINT
    return delta // a


def _member_of(ctx, headers, instruction):
    for header in headers:
        loop = ctx.analyses.loops_by_header[header]
        if instruction.parent in loop.blocks:
            return loop
    return None


def _cross_dependences_aligned(ctx, headers_a, headers_b, shifts_a=None,
                               skew=False):
    """Every cross-member dependence must stay worker-local.

    Without ``skew`` that means classic alignment (relative shift 0
    everywhere).  With ``skew``, all write-involving cross pairs must
    agree on one relative shift for the candidate member; the verdict's
    ``shifts`` is then the merged region's per-member shift tuple.
    """
    if shifts_a is None:
        shifts_a = (0,) * len(headers_a)
    shift_of = dict(zip(headers_a, shifts_a))
    if skew and len(headers_b) != 1:
        skew = False  # only single-member candidates can be re-shifted
    required = None  # agreed absolute shift for the candidate member
    witness = None
    inductions = _induction_objects(ctx, headers_a + headers_b)
    access_a = {}
    inst_header_a = {}
    for header in headers_a:
        for obj, entries in ctx.analyses.loop_accesses(
            ctx.analyses.loops_by_header[header]
        ).items():
            access_a.setdefault(obj, []).extend(entries)
            for access in entries:
                inst_header_a[access.instruction] = header
    for header in headers_b:
        access_b = ctx.analyses.loop_accesses(
            ctx.analyses.loops_by_header[header]
        )
        for obj, entries_b in access_b.items():
            if obj in inductions:
                continue  # every member privatizes its own induction
            entries_a = access_a.get(obj)
            if not entries_a:
                continue
            if not any(
                access.is_write for access in entries_a + entries_b
            ):
                continue  # read-only on both sides
            if obj == CONSOLE:
                return Legality.no("both members print")
            kind = _member_classification(
                ctx, headers_a + headers_b, obj
            )
            if kind in ("mixed",):
                return Legality.no(
                    f"members disagree on privatization of "
                    f"{_object_name(obj)}"
                )
            if kind is not None and kind != "shared":
                continue  # per-worker copies on every member: no flow
            for first in entries_a:
                for second in entries_b:
                    if not (first.is_write or second.is_write):
                        continue
                    inst_a, inst_b = first.instruction, second.instruction
                    loop_a = _member_of(ctx, headers_a, inst_a)
                    loop_b = _member_of(ctx, headers_b, inst_b)
                    relative = _pair_shift(
                        loop_a, first.offset, loop_b, second.offset
                    )
                    if relative is _DISJOINT:
                        continue
                    if relative is None or (not skew and relative != 0):
                        return Legality.no(
                            f"unaligned dependence on "
                            f"{_object_name(obj)} "
                            f"(#{inst_a.uid} vs #{inst_b.uid})"
                        )
                    absolute = (
                        shift_of[inst_header_a[inst_a]] + relative
                    )
                    if required is None:
                        required = absolute
                        witness = (
                            f"distance {relative} on "
                            f"{_object_name(obj)} "
                            f"(#{inst_a.uid} vs #{inst_b.uid})"
                        )
                    elif required != absolute:
                        return Legality.no(
                            f"non-uniform dependence distances on "
                            f"{_object_name(obj)}: shift {absolute} "
                            f"vs {required} "
                            f"(#{inst_a.uid} vs #{inst_b.uid})"
                        )
    shifts = tuple(shifts_a) + (required or 0,) * len(headers_b)
    return Legality.yes(witness=witness, shifts=shifts)


def _object_name(obj):
    return getattr(obj, "display_name", None) or repr(obj)


# -- loop interchange -------------------------------------------------------------

#: Pure register-level glue the nest dispatch may skip (their only
#: effects are loop bookkeeping the workers redo per pair).
_PURE_GLUE = (BinaryOp, UnaryOp, Compare, Cast, Jump, Branch)


def can_interchange(ctx, outer, inner, recipe):
    """May the serial ``outer`` / DOALL ``inner`` nest run inner-partitioned?

    The runtime executes an interchanged nest by partitioning the
    *inner* iteration space across workers once and running each
    worker's slice in outer-major order — so two iterations with
    different inner values may land on different workers under *any*
    pair of outer values.  Legal exactly when the direction-vector test
    proves no dependence is carried by the inner loop for any outer
    distance (direction ``(*, <)`` or ``(*, >)`` must be empty); a pair
    the test cannot decide (non-affine subscripts) rejects the nest.
    """
    if outer.canonical is None or inner.canonical is None:
        return Legality.no("nest loops are not in canonical form")
    if inner.parent is not outer:
        return Legality.no("DOALL loop is not an immediate child")
    if len(outer.children) != 1:
        return Legality.no("outer loop carries siblings of the DOALL loop")
    if static_trip_count(outer) is None or static_trip_count(inner) is None:
        return Legality.no("nest bounds are not compile-time constants")

    for inst in outer.instructions():
        if isinstance(inst, (Call, Print)):
            return Legality.no(
                f"nest contains {inst.opcode} #{inst.uid}"
            )

    verdict = _nest_glue_is_pure(outer, inner)
    if not verdict:
        return verdict
    verdict = _inner_body_is_self_contained(outer, inner)
    if not verdict:
        return verdict
    return _nest_dependences_inner_independent(ctx, outer, inner, recipe)


def _nest_glue_is_pure(outer, inner):
    """Only loop bookkeeping between the outer header and the inner loop.

    The nest dispatch never executes the glue blocks (workers assign
    both induction storages directly per pair), so everything the outer
    loop owns outside the inner loop must be: the induction allocas,
    loads/stores of those inductions, pure register arithmetic, and
    (conditional) jumps.  Any other memory access, call, or print is a
    side effect the transformed schedule would drop.
    """
    inner_blocks = set(inner.blocks)
    inductions = {outer.canonical.induction, inner.canonical.induction}
    for block in outer.blocks:
        if block in inner_blocks:
            continue
        for inst in block.instructions:
            if isinstance(inst, Alloca) and inst in inductions:
                continue
            if isinstance(inst, Load) and inst.pointer in inductions:
                continue
            if isinstance(inst, Store) and inst.pointer in inductions:
                continue
            if isinstance(inst, _PURE_GLUE):
                continue
            return Legality.no(
                f"nest glue computes #{inst.uid} ({inst.opcode})"
            )
    return Legality.yes()


def _inner_body_is_self_contained(outer, inner):
    """No register flows from the (skipped) glue into the inner body."""
    inner_instructions = set()
    for block in inner.blocks:
        inner_instructions.update(block.instructions)
    outer_instructions = set()
    for block in outer.blocks:
        outer_instructions.update(block.instructions)
    glue = outer_instructions - inner_instructions
    inductions = {outer.canonical.induction, inner.canonical.induction}
    for inst in inner_instructions:
        for operand in inst.operands:
            if operand in inductions:
                continue  # rebound per pair by the nest dispatch
            if isinstance(operand, Instruction) and operand in glue:
                return Legality.no(
                    f"inner body consumes glue register %{operand.uid}"
                )
    return Legality.yes()


def _nest_dependences_inner_independent(ctx, outer, inner, recipe):
    inner_ivs = {
        alloca: loop
        for alloca, loop in ctx.analyses.iv_map.items()
        if loop is not inner
    }
    skip_objects = {
        ctx.analyses.storage_object(outer.canonical.induction),
        ctx.analyses.storage_object(inner.canonical.induction),
    }
    for storage in (
        list(recipe.privatized) + [s for s, _op in recipe.reductions]
    ):
        skip_objects.add(ctx.analyses.storage_object(storage))
    if recipe.firstprivate or recipe.lastprivate:
        # Their per-dispatch seed/writeback encodes a flow between
        # consecutive outer iterations; one nest-wide dispatch loses it.
        return Legality.no(
            "inner recipe carries first/lastprivate state across "
            "outer iterations"
        )

    pending = None
    checked = 0
    inner_blocks = set(inner.blocks)
    for obj, entries in ctx.analyses.loop_accesses(outer).items():
        if obj in skip_objects:
            continue
        if (isinstance(obj, AllocaObject)
                and obj.alloca.parent in inner_blocks):
            # Allocated inside the inner body: every iteration executes
            # the alloca and gets fresh storage, so no value can flow
            # between iterations through it on any schedule.
            continue
        if not any(access.is_write for access in entries):
            continue
        if obj == CONSOLE:
            return Legality.no("nest prints")
        for index, first in enumerate(entries):
            for second in entries[index:]:
                if not (first.is_write or second.is_write):
                    continue
                offset_a, offset_b = first.offset, second.offset
                pair = (
                    f"#{first.instruction.uid} vs "
                    f"#{second.instruction.uid} on {_object_name(obj)}"
                )
                if offset_a is None or offset_b is None:
                    pending = Legality.no(
                        f"non-affine subscript leaves {pair} undecided",
                        witness=pair,
                    )
                    continue
                dep = test_level(offset_a, offset_b, inner, inner_ivs)
                if dep.carried_forward or dep.carried_backward:
                    if dep.exact:
                        return Legality.no(
                            f"dependence carried by "
                            f"{inner.header.name} across the nest "
                            f"({pair})",
                            witness=pair,
                        )
                    pending = Legality.no(
                        f"direction-vector test undecided for {pair}",
                        witness=pair,
                    )
                elif not dep.exact:
                    pending = Legality.no(
                        f"conservative fallback for {pair}",
                        witness=pair,
                    )
                else:
                    checked += 1
    if pending is not None:
        return pending
    return Legality.yes(
        witness=(
            f"direction vectors (*, =) only across {checked} "
            f"write-involving pairs"
        )
    )


# -- redundant-synchronization elimination ---------------------------------------


def sync_annotations_in(ctx, loop):
    """(annotation, guarded block-name set) for criticals/atomics whose
    region intersects ``loop``."""
    loop_blocks = {block.name for block in loop.blocks}
    found = []
    for annotation in ctx.analyses.function.annotations:
        if annotation.directive.kind not in _SYNC_KINDS:
            continue
        guarded = set(annotation.block_names) & loop_blocks
        if guarded:
            found.append((annotation, guarded))
    return found


def sync_is_redundant(ctx, loop, recipe, annotation, guarded_blocks):
    """May this critical/atomic's lock be elided for this loop's region?

    Redundant iff every object the guarded instructions touch either has
    a per-worker copy in the recipe (privatized / firstprivate /
    lastprivate / reduction storage, or a member induction variable) or
    carries no sequential-PDG memory dependence at ``loop`` — no
    cross-iteration conflict means no cross-worker conflict for a DOALL
    partition, so mutual exclusion guards nothing.
    """
    guarded_instructions = set()
    for name in guarded_blocks:
        block = ctx.blocks_by_name.get(name)
        if block is not None:
            guarded_instructions.update(block.instructions)

    storage_object = ctx.analyses.storage_object
    private_objects = {storage_object(loop.canonical.induction)}
    for storage in (
        list(recipe.privatized)
        + list(recipe.firstprivate)
        + list(recipe.lastprivate)
        + [storage for storage, _op in recipe.reductions]
    ):
        private_objects.add(storage_object(storage))

    guarded_objects = {
        access.obj
        for access in ctx.analyses.accesses
        if access.instruction in guarded_instructions
    }
    carried = ctx.analyses.carried_at(loop)
    for obj in guarded_objects - private_objects:
        if obj == CONSOLE:
            return Legality.no("guarded code prints")
        edge = carried.get(obj)
        if edge is not None:
            return Legality.no(
                f"{_object_name(obj)} carries "
                f"#{edge.source.uid}->#{edge.destination.uid} "
                f"at {loop.header.name}"
            )
    return Legality.yes()
