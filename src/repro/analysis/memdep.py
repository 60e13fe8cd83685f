"""Memory dependence analysis.

Produces the memory dependences (RAW/WAR/WAW) between instruction pairs
of one function, each classified as *loop-independent* (can occur within
a single iteration of every common loop — or outside loops entirely)
and/or *loop-carried* at each common enclosing loop.  Each dependence is
emitted as the PDG's memory edge itself (a ``memory``
:class:`~repro.pdg.graph.PDGEdge`): the PDG appends these objects, it
does not copy them.

Precision comes from three sources, in order:

1. object disambiguation (accesses to distinct objects never conflict),
2. affine subscript tests (ZIV / strong SIV / GCD, `repro.analysis.deptests`),
3. CFG reachability (a dependence needs an execution path from source to
   destination that does not re-enter the loop for the loop-independent
   component).

Everything that falls outside these (indirect subscripts like ``a[key[i]]``,
call effects) is conservatively "may depend" — which is exactly the situation
the PS-PDG's programmer-declared semantics later relaxes.
"""

import dataclasses
import functools

from repro.analysis import affine
from repro.analysis.alias import CONSOLE
from repro.analysis.cfg import can_reach
from repro.analysis.deptests import test_level
from repro.ir.instructions import Call, Load, Print, Store
from repro.pdg.graph import EDGE_MEMORY, PDGEdge


@dataclasses.dataclass
class MemoryAccess:
    """One instruction's effect on one memory object."""

    instruction: object
    obj: object
    is_write: bool
    offset: object  # AffineExpr or None (unknown / whole object)

    def __repr__(self):
        kind = "write" if self.is_write else "read"
        return f"<{kind} {self.obj!r} by #{self.instruction.uid}>"


def collect_accesses(analyses):
    """All memory accesses of the record's function, with affine offsets
    (in its ``iv_map``'s inductions, a single-store local read through
    its ``forward``) when known."""
    function, alias, forward = (
        analyses.function, analyses.alias, analyses.forward
    )
    accesses = []
    leaf = affine.induction_leaf(analyses.iv_map)
    for inst in function.instructions():
        if isinstance(inst, (Load, Store)):
            obj = alias.base_object(inst.pointer, function)
            offset = affine.gep_offset(inst.pointer, leaf, None, forward)[1]
            accesses.append(
                MemoryAccess(inst, obj, isinstance(inst, Store), offset)
            )
        elif isinstance(inst, Print):
            accesses.append(MemoryAccess(inst, CONSOLE, True, None))
        elif isinstance(inst, Call):
            reads, writes = alias.call_effects(inst, function)
            for obj in sorted(reads, key=id):
                accesses.append(MemoryAccess(inst, obj, False, None))
            for obj in sorted(writes, key=id):
                accesses.append(MemoryAccess(inst, obj, True, None))
    return accesses


def _dependence_kind(src_write, dst_write):
    if src_write and dst_write:
        return "WAW"
    if src_write:
        return "RAW"
    if dst_write:
        return "WAR"
    return None


class MemoryDependenceAnalysis:
    """Computes all memory dependences of one function.

    Reads the function's analysis record
    (:class:`~repro.analysis.record.FunctionAnalyses`): its loops, its
    accesses, its instruction positions and its successor map — the
    edges' ``carried_loops`` are therefore the record's own ``Loop``
    objects.
    """

    def __init__(self, analyses):
        self._loops_of_block = analyses.loops_of_block
        self._accesses_by_object = analyses.accesses_by_object
        self._position = analyses.positions
        self._succs = analyses.successors
        # What a pair asks of the loop forest and the CFG depends on its
        # blocks and loops alone: each answer is computed once, in caches
        # that live and die with this analysis.
        self._common_loops = functools.cache(self._common_loops)
        self._inner_ivs = functools.cache(self._inner_ivs)
        self._reaches = functools.cache(self._reaches)

    def run(self):
        """Return the memory :class:`~repro.pdg.graph.PDGEdge` list."""
        dependences = []
        for group in self._accesses_by_object.values():
            for i, first in enumerate(group):
                for second in group[i:]:
                    if not first.is_write and not second.is_write:
                        continue
                    dependences.extend(self._pair_dependences(first, second))
        return dependences

    # -- per-pair logic ----------------------------------------------------

    def _pair_dependences(self, acc_a, acc_b):
        results = []
        same_instruction = acc_a.instruction is acc_b.instruction
        directions = [(acc_a, acc_b)]
        if not same_instruction:
            directions.append((acc_b, acc_a))
        for src, dst in directions:
            kind = _dependence_kind(src.is_write, dst.is_write)
            if kind is None:
                continue
            state = self._directed_dependence(src, dst, same_instruction)
            if state is not None:
                results.append(PDGEdge(
                    src.instruction, dst.instruction, EDGE_MEMORY, kind,
                    src.obj, *state,
                ))
        return results

    def _directed_dependence(self, src, dst, same_instruction):
        """(loop_independent, carried_loops) or None if infeasible."""
        commons = self._common_loops(
            src.instruction.parent, dst.instruction.parent
        )
        levels = [self._test_at_level(src, dst, loop) for loop in commons]
        carried = [
            loop for loop, level in zip(commons, levels)
            if level.carried_forward
        ]

        loop_independent = False
        if not same_instruction:
            loop_independent = self._loop_independent_feasible(
                src, dst, commons, levels
            )

        if not loop_independent and not carried:
            return None
        return (loop_independent, tuple(carried))

    def _common_loops(self, src_block, dst_block):
        """Loops containing both blocks, innermost first."""
        outer = self._loops_of_block[dst_block]
        return tuple(
            loop for loop in self._loops_of_block[src_block] if loop in outer
        )

    def _inner_ivs(self, loop):
        return {
            enclosed.canonical.induction: enclosed
            for enclosed in loop.descendants()
            if enclosed.canonical is not None
        }

    def _test_at_level(self, src, dst, loop):
        return test_level(src.offset, dst.offset, loop, self._inner_ivs(loop))

    def _loop_independent_feasible(self, src, dst, commons, levels):
        # Address equality within one iteration of every common loop.
        if commons:
            if not levels[0].intra:
                return False
            innermost = commons[0]
        else:
            if not self._offsets_may_be_equal(src, dst):
                return False
            innermost = None

        return self._reaches_in_order(
            src.instruction, dst.instruction, innermost
        )

    def _offsets_may_be_equal(self, src, dst):
        if src.offset is None or dst.offset is None:
            return True
        difference = src.offset.add(dst.offset.scale(-1))
        if difference.is_constant():
            return difference.constant == 0
        return True

    def _reaches_in_order(self, src_inst, dst_inst, innermost):
        src_block = src_inst.parent
        dst_block = dst_inst.parent
        if src_block is dst_block:
            if self._position[src_inst] < self._position[dst_inst]:
                return True
            # Same block, src after dst: an intra path needs a cycle that
            # re-enters the block without the banned edges.
        return self._reaches(src_block, dst_block, innermost)

    def _reaches(self, src_block, dst_block, innermost):
        """A path that takes no back edge of ``innermost`` (if any)."""
        banned = innermost.back_edges() if innermost is not None else ()
        return can_reach(src_block, dst_block, self._succs, frozenset(banned))
