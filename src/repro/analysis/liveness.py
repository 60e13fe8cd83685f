"""Live-out analysis for memory objects relative to a loop.

The planner needs to know, for each loop it wants to parallelize, which
memory objects are *live-out*: read again after the loop exits.  Live-out
scalars need a data-selector decision (who provides the final value); dead
ones can be freely privatized.

The per-loop queries read the function's analysis record
(:class:`~repro.analysis.record.FunctionAnalyses`), which memoizes them:
ask ``analyses.live_out(loop)`` rather than calling these directly.
"""

from repro.analysis.cfg import reachable_blocks, successors_map


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
