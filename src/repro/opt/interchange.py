"""Loop interchange: dispatch a serial-outer / DOALL-inner nest once.

A DOALL loop directly nested in a serial loop today costs one runtime
dispatch — worker frames, partitioning, and on the ``processes`` backend
a wire payload — *per outer iteration*.  When the direction-vector test
proves no dependence is carried by the inner loop under any outer
distance (every vector is ``(*, =)``), the whole nest may instead be
dispatched once: the inner iteration space is partitioned across workers
and each worker runs its slice in outer-major order, preserving the
sequential order of every remaining (outer-carried, same-inner-value)
dependence worker-locally.

The side condition is declared as data on the descriptor: the legality
predicate's witness rides along in ``RegionDescriptor.witness``.  A pair
the test cannot decide (a non-affine subscript) rejects the nest, like a
proven carried dependence: the transform applies only on a proof.
"""

import dataclasses

from repro.opt.cost import static_trip_count
from repro.opt.legality import can_interchange
from repro.planner.plans import TECH_DOALL


class LoopInterchangePass:
    name = "loop-interchange"

    def run(self, ctx, plan, report):
        regions = []
        for region in plan.regions:
            regions.append(
                self._interchanged(ctx, plan, region, report) or region
            )
        return plan.with_regions(regions)

    def _interchanged(self, ctx, plan, region, report):
        if (
            region.fused
            or region.backend_override
            or region.outer_header
            or region.technique != TECH_DOALL
        ):
            return None
        header = region.headers[0]
        inner = ctx.analyses.loops_by_header[header]
        outer = inner.parent
        if outer is None or outer.canonical is None:
            return None
        outer_plan = plan.plan_for(outer.header.name)
        if outer_plan is not None and outer_plan.technique == TECH_DOALL:
            return None  # the nest is already outer-parallel
        trip = static_trip_count(outer)
        if trip is None or trip <= 1:
            return None  # no dispatch-count win to be had
        subject = (outer.header.name, header)
        verdict = can_interchange(ctx, outer, inner, ctx.recipe(header))
        if verdict:
            report.interchanged.append(subject)
            return dataclasses.replace(
                region,
                outer_header=outer.header.name,
                witness=verdict.witness,
            )
        report.rejected.append((self.name, subject, verdict.reason))
        return None
