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

from repro.analysis.alias import CONSOLE
from repro.analysis.affine import iteration_range
from repro.analysis.loops import loop_of_block
from repro.ir.instructions import Alloca, Jump, Store

#: Upper bound on the straight-line block chain between fused loops.
_MAX_INTERLOOP_BLOCKS = 16


class Legality:
    """Verdict of one predicate: truthy iff the transform is allowed.

    ``witness`` is the predicate's evidence — the dependence pair that
    decided the verdict — stored on the rewritten descriptor so reports
    and tests can audit the side condition.  A test that can neither
    prove nor refute legality (non-affine subscript, unbounded range)
    says no, with the undecided pair as its reason.
    """

    __slots__ = ("ok", "reason", "witness")

    def __init__(self, ok, reason=None, witness=None):
        self.ok = ok
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return self.ok

    @classmethod
    def yes(cls, witness=None):
        return cls(True, witness=witness)

    @classmethod
    def no(cls, reason):
        return cls(False, reason)

    def __repr__(self):
        if self.ok:
            return "<Legality ok>"
        return f"<Legality no {self.reason!r}>"


# -- parallel-region fusion ------------------------------------------------------


def can_fuse(ctx, region_a, region_b):
    """May ``region_b`` be appended to ``region_a`` as one dispatch?"""
    if region_a.backend_override or region_b.backend_override:
        return Legality.no("region already rebound to another backend")

    loops_a = [ctx.analyses.loops_by_header[h] for h in region_a.headers]
    loops_b = [ctx.analyses.loops_by_header[h] for h in region_b.headers]

    verdict = _same_iteration_space(loops_a + loops_b)
    if not verdict:
        return verdict
    verdict = _same_chunk(region_a.recipes + region_b.recipes)
    if not verdict:
        return verdict
    verdict = _adjacent(ctx, loops_a[-1], loops_b[0])
    if not verdict:
        return verdict
    return _cross_dependences_aligned(ctx, region_a, region_b)


def _same_iteration_space(loops):
    parents = {id(loop.parent) for loop in loops}
    if len(parents) != 1:
        return Legality.no("members nest in different parent loops")
    spaces = [iteration_range(loop) for loop in loops]
    if any(space is None for space in spaces):
        return Legality.no("member bounds are not compile-time constants")
    spaces = [(space.start, space.stop, space.step) for space in spaces]
    if len(set(spaces)) != 1:
        return Legality.no(f"iteration spaces differ: {sorted(set(spaces))}")
    return Legality.yes()


def _same_chunk(recipes):
    chunks = {recipe.chunk for recipe in recipes}
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


def _member_classification(ctx, recipes, obj):
    """Consistent per-worker classification across the members touching
    ``obj``, or ``"shared"``/``"mixed"``."""
    kinds = set()
    for recipe in recipes:
        loop = ctx.analyses.loops_by_header[recipe.header]
        if obj not in ctx.analyses.loop_accesses(loop):
            continue
        kinds.add(_classify_private(ctx, recipe, obj))
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


#: ``_pair_alignment`` result for slot sets that can never collide.
_DISJOINT = object()


def _pair_alignment(loop_src, offset_src, loop_dst, offset_dst):
    """Does this dependence stay on one worker under a shared partition?

    Offsets must be affine in exactly their own member induction with
    one shared non-zero coefficient ``a``; then dst iteration ``j``
    touches the slot src iteration ``i = j + (c_dst - c_src) / a``
    touched, which is the same iteration (so the same worker) exactly
    when the constants agree.  Returns True for that alignment,
    ``_DISJOINT`` when the slot sets cannot intersect, and False
    otherwise (a non-zero distance, or subscripts outside this form).
    """
    if offset_src is None or offset_dst is None:
        return False
    iv_src = loop_src.canonical.induction
    iv_dst = loop_dst.canonical.induction
    if set(offset_src.coefficients) != {iv_src}:
        return False
    if set(offset_dst.coefficients) != {iv_dst}:
        return False
    a = offset_src.coefficient(iv_src)
    if a == 0 or a != offset_dst.coefficient(iv_dst):
        return False
    delta = offset_dst.constant - offset_src.constant
    if delta % a != 0:
        return _DISJOINT
    return delta == 0


def _member_of(ctx, headers, instruction):
    for header in headers:
        loop = ctx.analyses.loops_by_header[header]
        if instruction.parent in loop.blocks:
            return loop
    return None


def _cross_dependences_aligned(ctx, region_a, region_b):
    """Every cross-member dependence must be aligned, so worker-local."""
    headers_a, headers_b = region_a.headers, region_b.headers
    witness = None
    inductions = _induction_objects(ctx, headers_a + headers_b)
    access_a = {}
    for header in headers_a:
        for obj, entries in ctx.analyses.loop_accesses(
            ctx.analyses.loops_by_header[header]
        ).items():
            access_a.setdefault(obj, []).extend(entries)
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
                ctx, region_a.recipes + region_b.recipes, obj
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
                    aligned = _pair_alignment(
                        loop_a, first.offset, loop_b, second.offset
                    )
                    if aligned is _DISJOINT:
                        continue
                    pair = (
                        f"{_object_name(obj)} "
                        f"(#{inst_a.uid} vs #{inst_b.uid})"
                    )
                    if not aligned:
                        return Legality.no(f"unaligned dependence on {pair}")
                    witness = witness or f"aligned dependence on {pair}"
    return Legality.yes(witness=witness)


def _object_name(obj):
    return getattr(obj, "display_name", None) or repr(obj)


# -- redundant-synchronization elimination ---------------------------------------


def sync_annotations_in(ctx, loop):
    """(annotation, guarded block-name set) for criticals/atomics whose
    region intersects ``loop``."""
    loop_blocks = {block.name for block in loop.blocks}
    found = []
    for annotation in ctx.analyses.function.annotations:
        if annotation.lock_key is None:
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
