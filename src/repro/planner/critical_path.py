"""Ideal-machine critical path of a program under a parallelization plan.

Paper §6.3: "we measure, via an emulator, the critical path of the
available parallelism on an ideal machine with unlimited cores, zero cost
communication, and perfect memory access ... computed as the number of
dynamic LLVM instructions that must run sequentially given a
parallelization plan."

The evaluation runs bottom-up over the profile's interned shapes
(:meth:`repro.emulator.profile.FunctionProfile.shapes`), once per
distinct shape, weighting each iteration shape by its multiplicity:

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


class CriticalPathEvaluator:
    """Evaluates one :class:`ProgramPlan` over one dynamic profile.

    Cost scales with distinct shapes, not dynamic iterations; and a plan
    that differs from an evaluated one in a single loop
    (:meth:`with_loop_plan`) pays only for the shapes containing that loop.
    """

    def __init__(self, profile, plan):
        self.profile = profile
        self.plan = plan
        # (shape, None) -> critical path; (iteration shape, excluded uids)
        # -> HELIX parallel remainder.  Valid for ``plan`` only.
        self._paths = {}
        # uid sets -> ({uid: indices of the sets holding it}, {iteration
        # shape: serialized work per set}).  Depends on ``plan.loop_uids``
        # but on no loop's technique.
        self._serialized = {}

    def evaluate(self):
        """Critical path (dynamic instructions) of the whole execution."""
        return self._iteration_path(self.profile.shapes())

    def with_loop_plan(self, header_name, loop_plan):
        """Evaluator of ``plan`` with one loop re-planned.

        Keeps every result for a subtree that does not contain the loop.
        """
        trial = CriticalPathEvaluator(
            self.profile, self.plan.with_loop_plan(header_name, loop_plan)
        )
        trial._serialized = self._serialized
        trial._paths = {
            key: path
            for key, path in self._paths.items()
            if header_name not in key[0].headers
        }
        return trial

    # -- recursion over the shape DAG ---------------------------------------

    def _iteration_path(self, shape):
        key = (shape, None)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = shape.direct + sum(
                self._instance_path(child) for child in shape.children
            )
        return path

    def _instance_path(self, instance):
        key = (instance, None)
        path = self._paths.get(key)
        if path is not None:
            return path
        loop_plan = self.plan.plan_for(instance.header_name)
        technique = loop_plan.technique if loop_plan is not None else None
        iterations = instance.iterations
        if technique == TECH_DOALL:
            locked = loop_plan.serialized_uids | loop_plan.sequential_uids
            path = max(
                self._longest_iteration(instance),
                self._serialized_sum(instance, locked),
            )
        elif technique == TECH_HELIX:
            sequential = (
                loop_plan.sequential_uids | loop_plan.serialized_uids
            )
            path = self._serialized_sum(instance, sequential) + max(
                (
                    self._iteration_excluding(it, sequential)
                    for it, _mult in iterations
                ),
                default=0,
            )
        elif technique == TECH_DSWP:
            # Each stage streams all iterations; slowest stage dominates,
            # plus one iteration of pipeline fill.
            stage_totals = self._instance_work(
                instance, loop_plan.stage_groups
            )
            path = max(
                stage_totals.values(), default=0
            ) + self._longest_iteration(instance)
        else:
            path = sum(
                self._iteration_path(it) * mult for it, mult in iterations
            )
        self._paths[key] = path
        return path

    def _longest_iteration(self, instance):
        return max(
            (self._iteration_path(it) for it, _mult in instance.iterations),
            default=0,
        )

    # -- filtered accounting ------------------------------------------------

    def _serialized_sum(self, instance, uids):
        if not uids:
            return 0
        return self._instance_work(instance, (uids,)).get(0, 0)

    def _instance_work(self, instance, uid_sets):
        """{index: work of all iterations within ``uid_sets[index]``}."""
        work = {}
        for shape, mult in instance.iterations:
            amounts = self._iteration_work(shape, uid_sets)
            for index, amount in amounts.items():
                work[index] = work.get(index, 0) + amount * mult
        return work

    def _iteration_work(self, shape, uid_sets):
        """Work of one iteration restricted to each uid set, serialized.

        Nested loop instances wholly inside a set contribute their entire
        dynamic total (they run under the lock / inside the sequential
        segment / in that pipeline stage).  One pass serves every set —
        all stages of a DSWP pipeline — through a uid -> indices map.
        """
        if uid_sets not in self._serialized:
            holders = {}
            for index, uids in enumerate(uid_sets):
                for uid in uids:
                    holders.setdefault(uid, []).append(index)
            self._serialized[uid_sets] = (holders, {})
        holders, memo = self._serialized[uid_sets]
        work = memo.get(shape)
        if work is not None:
            return work
        work = {}
        for uid, count in shape.counts.items():
            for index in holders.get(uid, ()):
                work[index] = work.get(index, 0) + count
        for child in shape.children:
            child_uids = self.plan.loop_uids.get(
                child.header_name, frozenset()
            )
            nested = None
            for index, uids in enumerate(uid_sets):
                if child_uids and child_uids <= uids:
                    amount = child.total
                elif child_uids & uids:
                    if nested is None:
                        nested = self._instance_work(child, uid_sets)
                    amount = nested.get(index, 0)
                else:
                    continue
                work[index] = work.get(index, 0) + amount
        memo[shape] = work
        return work

    def _iteration_excluding(self, shape, excluded):
        """Critical path of an iteration with ``excluded`` work removed."""
        key = (shape, excluded)
        total = self._paths.get(key)
        if total is not None:
            return total
        total = shape.direct - sum(
            count for uid, count in shape.counts.items() if uid in excluded
        )
        for child in shape.children:
            child_uids = self.plan.loop_uids.get(
                child.header_name, frozenset()
            )
            if child_uids and child_uids <= excluded:
                continue
            if child_uids & excluded:
                total += sum(
                    self._iteration_excluding(it, excluded) * mult
                    for it, mult in child.iterations
                )
            else:
                total += self._instance_path(child)
        self._paths[key] = total
        return total


def critical_path(profile, plan):
    """Convenience wrapper."""
    return CriticalPathEvaluator(profile, plan).evaluate()
