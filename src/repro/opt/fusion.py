"""Parallel-region fusion: adjacent compatible DOALL loops, one dispatch.

Greedy left-to-right over the plan's region list (which is in
control-flow order): each region tries to absorb its successor; a merged
region immediately tries to absorb the next one, so a run of k adjacent
compatible loops collapses into a single region in one sweep.  Every
rejected attempt is recorded with the legality predicate's reason — the
negative cases are as load-bearing for the test suite as the positives.
"""

import dataclasses

from repro.opt.legality import can_fuse


class RegionFusionPass:
    name = "region-fusion"

    def run(self, ctx, plan, report):
        regions = list(plan.regions)
        fused = []
        index = 0
        while index < len(regions):
            current = regions[index]
            cursor = index + 1
            while cursor < len(regions):
                candidate = regions[cursor]
                verdict = can_fuse(ctx, current, candidate)
                if not verdict:
                    report.rejected.append(
                        (
                            self.name,
                            current.headers + candidate.headers,
                            verdict.reason,
                        )
                    )
                    break
                current = dataclasses.replace(
                    current,
                    recipes=current.recipes + candidate.recipes,
                    removed_sync_uids=(
                        current.removed_sync_uids
                        | candidate.removed_sync_uids
                    ),
                    witness=verdict.witness or current.witness,
                )
                report.fused.append(current.headers)
                cursor += 1
            fused.append(current)
            index = cursor
        return plan.with_regions(fused)
