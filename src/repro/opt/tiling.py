"""Strip-mine/tiling: a machine-model floor on iterations per payload.

Every dispatched chunk pays fixed overhead — worker frames, scheduling,
and on the ``processes`` backend a wire round-trip carrying the region's
shared state.  When a region's static cost and trip count are
known, :meth:`MachineModel.tile_iterations` derives the smallest chunk
whose compute amortizes that overhead; the descriptor records it as the
region's tile shape and the runtime caps the effective worker count at
``ceil(trip / tile)``, padding the remaining workers with empty chunks.
A coarser partition of a DOALL space is just another legal schedule, so
this pass needs no legality predicate — only the cost model.

Runs last in the ``-O3`` pipeline so it sees final region shapes
(fused members) and tiles the space the runtime will actually
partition.
"""

import dataclasses

from repro.analysis.affine import iteration_range
from repro.opt.cost import region_cost
from repro.planner.plans import OVERRIDE_SEQUENTIAL


class TilingPass:
    name = "tiling"

    def run(self, ctx, plan, report):
        machine = ctx.machine
        loops = ctx.analyses.loops_by_header
        regions = []
        for region in plan.regions:
            if region.backend_override == OVERRIDE_SEQUENTIAL or region.tile:
                regions.append(region)
                continue
            # The partitioned space is the members' shared iteration
            # space.
            space = iteration_range(loops[region.headers[0]])
            tile = machine.tile_iterations(
                region_cost(ctx, region.headers), space and len(space)
            )
            if tile is None:
                regions.append(region)
                continue
            report.tiled.append((region.label, tile))
            regions.append(dataclasses.replace(region, tile=tile))
        return plan.with_regions(regions)
