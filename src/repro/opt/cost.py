"""Static cost estimation for parallel regions.

The small-region serialization pass needs to know, before execution,
roughly how much dynamic work one entry of a region performs.  For the
structured loops our frontend produces this is computable exactly when
every bound is a constant: cost(loop) = trip * (instructions in blocks
owned by the loop itself + cost of each directly nested loop).  A loop
with any non-constant bound has unknown trip count and poisons the
estimate (``None``), in which case the serialization pass leaves the
region alone — the safe direction, since serializing a huge region would
cost real parallelism while dispatching a small one only costs overhead.
"""

from repro.analysis.deptests import constant_trip_count

#: Trip count assumed for non-canonical inner loops (e.g. ``while``)
#: nested inside a region.  Deliberately conservative-high so an unknown
#: inner loop biases a region toward staying parallel.
DEFAULT_INNER_TRIP = 16


def loop_cost(loop):
    """Estimated dynamic instructions per entry of ``loop``.

    Exact for constant-bound canonical nests; inner loops with unknown
    trip counts contribute ``DEFAULT_INNER_TRIP`` iterations each.  A
    *top-level* unknown trip count makes the whole estimate None — the
    serialization threshold must never fire on a loop whose iteration
    space the pass cannot see.
    """
    trip = constant_trip_count(loop)
    if trip is None:
        return None
    return trip * _body_cost(loop)


def _body_cost(loop):
    child_blocks = set()
    for child in loop.children:
        child_blocks.update(child.blocks)
    own = sum(
        len(block.instructions)
        for block in loop.blocks
        if block not in child_blocks
    )
    nested = 0
    for child in loop.children:
        trip = constant_trip_count(child)
        if trip is None:
            trip = DEFAULT_INNER_TRIP
        nested += trip * _body_cost(child)
    return own + nested


def region_cost(ctx, headers):
    """Summed per-entry cost of a region's member loops (None if unknown).

    A loop's cost is static, so the analysis record keeps it: pricing
    the same plan for another machine does not walk the nest again.
    """
    analyses = ctx.analyses
    total = 0
    for header in headers:
        cost = analyses.once(loop_cost, analyses.loops_by_header[header])
        if cost is None:
            return None
        total += cost
    return total
