"""Redundant-synchronization elimination.

A ``critical``/``atomic`` region inside a planned DOALL loop serializes
its workers.  When the guarded objects either live in per-worker storage
or carry no sequential dependence at that loop level, the lock orders
nothing observable: drop it.  The descriptor records the elided
annotation uids (the runtime skips them when building its lock map — and
the ``processes`` backend no longer needs its shared-memory fallback),
and the loop's :class:`LoopPlan` sheds the matching ``serialized_uids``
so the analytical critical-path model sees the win too.
"""

import dataclasses

from repro.opt.legality import sync_annotations_in, sync_is_redundant
from repro.planner.plans import ProgramPlan


class SyncEliminationPass:
    name = "sync-elimination"

    def run(self, ctx, plan, report):
        loop_plans = dict(plan.loop_plans)
        regions = []
        for region in plan.regions:
            removed = set(region.removed_sync_uids)
            for recipe in region.recipes:
                header = recipe.header
                loop = ctx.analyses.loops_by_header[header]
                for annotation, guarded in sync_annotations_in(ctx, loop):
                    if annotation.uid in removed:
                        continue
                    verdict = sync_is_redundant(
                        ctx, loop, recipe, annotation, guarded
                    )
                    if not verdict:
                        report.rejected.append(
                            (
                                self.name,
                                (header, annotation.directive.kind),
                                verdict.reason,
                            )
                        )
                        continue
                    removed.add(annotation.uid)
                    report.syncs_removed.append(
                        (header, annotation.directive.kind, annotation.uid)
                    )
                    self._shed_serialized_uids(
                        ctx, loop_plans, header, guarded
                    )
            # ``replace`` (not a field-by-field rebuild) so descriptor
            # fields later passes own — backend overrides, tiles —
            # survive this pass untouched.
            regions.append(
                dataclasses.replace(
                    region, removed_sync_uids=frozenset(removed)
                )
            )
        return ProgramPlan(
            plan.name, loop_plans, plan.loop_uids, tuple(regions)
        )

    @staticmethod
    def _shed_serialized_uids(ctx, loop_plans, header, guarded_blocks):
        loop_plan = loop_plans.get(header)
        if loop_plan is None or not loop_plan.serialized_uids:
            return
        guarded_uids = set()
        for name in guarded_blocks:
            block = ctx.blocks_by_name.get(name)
            if block is not None:
                guarded_uids.update(inst.uid for inst in block.instructions)
        loop_plans[header] = dataclasses.replace(
            loop_plan,
            serialized_uids=loop_plan.serialized_uids - guarded_uids,
        )
