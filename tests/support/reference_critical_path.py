"""Test-only oracle: the critical-path model as a plain profile-tree walk.

This is the evaluator ``repro.planner.critical_path`` shipped before it
moved onto interned profile shapes: it visits every dynamic iteration and
re-filters per DSWP stage, which is slow but reads straight off the
formulas below.  ``tests/planner/test_critical_path_shapes.py`` requires
the shipped evaluator to agree with it exactly.

Paper §6.3: "we measure, via an emulator, the critical path of the
available parallelism on an ideal machine with unlimited cores, zero cost
communication, and perfect memory access ... computed as the number of
dynamic LLVM instructions that must run sequentially given a
parallelization plan."

The evaluation walks the dynamic loop-nest profile bottom-up:

* sequential composition sums;
* a DOALL loop costs ``max(max_iteration_cost, serialized_work_sum)`` —
  iterations overlap fully, but orderless critical-section instances
  cannot overlap each other;
* a HELIX loop costs ``sum(sequential_segment_work) + max(parallel
  remainder of one iteration)`` — sequential segments execute in iteration
  order while the parallel parts of different iterations overlap;
* a DSWP pipeline costs ``max(stage totals) + one-iteration fill``;
* nested loops recurse with their own plans (hierarchical parallelism).

Costs are dynamic instruction counts; on the ideal machine privatization,
reduction merges, and communication are free, matching the paper's model
(they are free *for every abstraction*, so comparisons are unaffected).
"""

from repro.planner.plans import (
    TECH_DOALL,
    TECH_DSWP,
    TECH_HELIX,
)


class ReferenceCriticalPathEvaluator:
    """Evaluates one :class:`ProgramPlan` over one dynamic profile tree."""

    def __init__(self, profile, plan):
        self.profile = profile
        self.plan = plan

    def evaluate(self):
        """Critical path (dynamic instructions) of the whole execution."""
        return self._iteration_path(self.profile.root)

    def with_loop_plan(self, header_name, loop_plan):
        """The planner's trial protocol, with nothing shared."""
        return ReferenceCriticalPathEvaluator(
            self.profile, self.plan.with_loop_plan(header_name, loop_plan)
        )

    # -- recursion over the profile tree ------------------------------------

    def _iteration_path(self, iteration):
        total = iteration.direct_total()
        for child in iteration.children:
            total += self._instance_path(child)
        return total

    def _instance_path(self, instance):
        loop_plan = self.plan.plan_for(instance.header_name)
        iterations = instance.iterations
        if loop_plan is None or loop_plan.technique not in (
            TECH_DOALL,
            TECH_HELIX,
            TECH_DSWP,
        ):
            return sum(self._iteration_path(it) for it in iterations)

        if loop_plan.technique == TECH_DOALL:
            locked = loop_plan.serialized_uids | loop_plan.sequential_uids
            per_iteration = [self._iteration_path(it) for it in iterations]
            serialized_sum = sum(
                self._sequential_filtered(it, locked) for it in iterations
            )
            return max(max(per_iteration, default=0), serialized_sum)

        if loop_plan.technique == TECH_HELIX:
            sequential = (
                loop_plan.sequential_uids | loop_plan.serialized_uids
            )
            segment_sum = sum(
                self._sequential_filtered(it, sequential)
                for it in iterations
            )
            parallel_max = max(
                (
                    self._iteration_excluding(it, sequential)
                    for it in iterations
                ),
                default=0,
            )
            return segment_sum + parallel_max

        # DSWP: each stage streams all iterations; slowest stage dominates,
        # plus one iteration of pipeline fill.
        stage_totals = [
            sum(
                self._sequential_filtered(it, stage) for it in iterations
            )
            for stage in loop_plan.stage_groups
        ]
        fill = max(
            (self._iteration_path(it) for it in iterations), default=0
        )
        return max(stage_totals, default=0) + fill

    # -- filtered accounting ------------------------------------------------------

    def _sequential_filtered(self, iteration, uids):
        """Work of one iteration restricted to ``uids``, fully serialized.

        Nested loop instances wholly inside the filter contribute their
        entire dynamic total (they run under the lock / inside the
        sequential segment).
        """
        total = iteration.count_of(uids)
        for child in iteration.children:
            child_uids = self.plan.loop_uids.get(
                child.header_name, frozenset()
            )
            if child_uids and child_uids <= uids:
                total += child.total()
            elif child_uids & uids:
                total += sum(
                    self._sequential_filtered(it, uids)
                    for it in child.iterations
                )
        return total

    def _iteration_excluding(self, iteration, excluded):
        """Critical path of an iteration with ``excluded`` work removed."""
        total = iteration.direct_total() - iteration.count_of(excluded)
        for child in iteration.children:
            child_uids = self.plan.loop_uids.get(
                child.header_name, frozenset()
            )
            if child_uids and child_uids <= excluded:
                continue
            if child_uids & excluded:
                total += sum(
                    self._iteration_excluding(it, excluded)
                    for it in child.iterations
                )
            else:
                total += self._instance_path(child)
        return total


def reference_critical_path(profile, plan):
    return ReferenceCriticalPathEvaluator(profile, plan).evaluate()
