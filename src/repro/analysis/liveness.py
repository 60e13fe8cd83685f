"""Live-out analysis for memory objects relative to a loop.

The planner needs to know, for each loop it wants to parallelize, which
memory objects are *live-out*: read again after the loop exits.  Live-out
scalars need a data-selector decision (who provides the final value); dead
ones can be freely privatized.

The per-loop queries read the function's analysis record
(:class:`~repro.analysis.record.FunctionAnalyses`), which memoizes them:
ask ``analyses.live_out(loop)`` rather than calling these directly.

:func:`live_in_registers` is the register side: the values defined
outside a region's loops that its chunks read from the parent frame.
"""

from repro.analysis.cfg import reachable_blocks, successors_map
from repro.ir.instructions import Instruction


def blocks_after_loop(function, loop):
    """Blocks reachable from the loop's exit edges, excluding loop blocks."""
    succs = successors_map(function)
    after = set()
    for _from_block, to_block in loop.exit_edges():
        for block in reachable_blocks(to_block, succs):
            if block not in loop.blocks:
                after.add(block)
    return after


def live_out_objects(analyses, loop):
    """The set of objects written inside ``loop`` and read after it exits."""
    after = blocks_after_loop(analyses.function, loop)
    written_inside = {
        obj
        for obj, group in analyses.loop_accesses(loop).items()
        if any(access.is_write for access in group)
    }
    return {
        access.obj
        for access in analyses.accesses
        if not access.is_write
        and access.instruction.parent in after
        and access.obj in written_inside
    }


def objects_accessed_in_loop(analyses, loop):
    """(reads, writes) object lists for accesses inside the loop."""
    reads, writes = [], []
    for obj, group in analyses.loop_accesses(loop).items():
        if any(not access.is_write for access in group):
            reads.append(obj)
        if any(access.is_write for access in group):
            writes.append(obj)
    return reads, writes


def live_in_registers(loops):
    """Registers a chunk of these loops can read: operands defined outside.

    Everything defined *inside* a member loop is recomputed by the chunk
    itself, so worker payloads only ship the live-in registers — the SSA
    values (pointers computed before the loop, loop-invariant scalars)
    the body references but never defines.
    """
    inside = set()
    for loop in loops:
        for block in loop.blocks:
            inside.update(id(inst) for inst in block.instructions)
    needed = set()
    for loop in loops:
        for block in loop.blocks:
            for inst in block.instructions:
                for operand in inst.operands:
                    if (
                        isinstance(operand, Instruction)
                        and id(operand) not in inside
                    ):
                        needed.add(operand)
    return needed
