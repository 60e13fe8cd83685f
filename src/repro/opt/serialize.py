"""Small-region serialization.

Dispatching a parallel region is not free — worker frames, partitioning,
and (on the ``processes`` backend) pickling the region's shared state
plus per-worker frames.  A region whose statically estimated per-entry
cost is below the machine model's thresholds is rebound: below
``serial_region_cost`` it is not dispatched at all (the sequential
interpreter just runs the loop); below ``threads_region_cost`` it still
runs in parallel but never on the process pool.  This is exactly the LU
fix from the roadmap: the wavefront's 18-iteration inner loops stop
paying a process-pool payload per anti-diagonal per timestep.

The bars assume a region's compute divides among its workers.  Where
it does not (``threads`` on a GIL build,
:func:`~repro.planner.machine.compute_overlaps`), a dispatch costs
D = ``threads_region_cost`` on top of the loop run in place and saves
nothing, so a region costing at most :data:`GIL_DISPATCH_FACTOR` times D
runs in place.  A larger one stays dispatched: serializing it is the
costly mistake if the overlap assumption is wrong (the asymmetry
:mod:`repro.opt.cost` applies to unknown trip counts).
"""

import dataclasses

from repro.opt.cost import region_cost
from repro.planner.plans import OVERRIDE_SEQUENTIAL, OVERRIDE_THREADS

#: Without overlap a region runs in place when dispatch would make it at
#: least 1/8 slower.  On NAS8 and dense96 at ``-O2`` (PS-PDG, compiled)
#: any factor from 4 to 31 gives the same plans: EP's region (effective
#: cost 7 338) is the largest that serializes, dense96's init region
#: (65 120) the smallest that stays, and FT's ``for.header.3`` (71 226).
GIL_DISPATCH_FACTOR = 8


class SmallRegionSerializationPass:
    name = "small-region-serialization"

    def run(self, ctx, plan, report):
        machine = ctx.machine
        gil_bar = 0
        if not ctx.overlaps:
            gil_bar = GIL_DISPATCH_FACTOR * machine.threads_region_cost
        regions = []
        for region in plan.regions:
            # Under region compilation a worker retires steps faster, so
            # the same static cost buys less wall-clock: the effective
            # cost shrinks and borderline regions serialize.  Dispatch
            # overhead (the bars) is interpreter-independent.  A
            # measured per-region speedup (bench feedback) replaces the
            # model's prior when the runtime observed one.
            cost = machine.effective_region_cost(
                region_cost(ctx, region.headers),
                compiled=ctx.compile_regions,
                speedup=ctx.compiled_speedup.get(region.label),
            )
            override = None
            if cost is not None:
                # Measured bytes-on-wire (a previous run's payload_bytes
                # stat) raise the process-pool bar: a region must do
                # enough work to amortize what its payloads actually
                # cost to ship, not just the fixed dispatch overhead.
                measured = ctx.payload_bytes.get(region.label)
                threads_bar = (
                    machine.threads_region_cost
                    + machine.serialization_cost(measured)
                )
                if cost < machine.serial_region_cost or cost <= gil_bar:
                    override = OVERRIDE_SEQUENTIAL
                elif cost < threads_bar:
                    override = OVERRIDE_THREADS
            if override is None:
                regions.append(region)
                continue
            report.serialized.append((region.label, cost, override))
            regions.append(
                dataclasses.replace(region, backend_override=override)
            )
        return plan.with_regions(regions)
