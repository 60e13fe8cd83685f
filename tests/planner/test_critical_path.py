"""Ideal-machine critical path under explicit plans."""

from repro import Session
from repro.planner.critical_path import CriticalPathEvaluator
from repro.planner.plans import (
    LoopPlan,
    ProgramPlan,
    TECH_DOALL,
    TECH_DSWP,
    TECH_HELIX,
    abstraction_plan,
    loop_uid_map,
    openmp_source_plan,
)


def profiled(source):
    return Session.from_source(source, name="t")


def test_sequential_critical_path_is_total_work():
    setup = profiled(
        "global a: int[16];\nfunc main() { for i in 0..16 { a[i] = i; } }"
    )
    plan = ProgramPlan("seq", {}, loop_uid_map(setup.loops))
    cp = CriticalPathEvaluator(setup.profile, plan).evaluate()
    assert cp == setup.profile.total()


def test_doall_collapses_iterations_to_max():
    setup = profiled(
        "global a: int[16];\nfunc main() { for i in 0..16 { a[i] = i; } }"
    )
    uid_map = loop_uid_map(setup.loops)
    header = setup.loops[0].header.name
    plan = ProgramPlan("p", {header: LoopPlan(TECH_DOALL)}, uid_map)
    cp = CriticalPathEvaluator(setup.profile, plan).evaluate()
    sequential = setup.profile.total()
    assert cp < sequential / 4


def test_doall_with_serialized_work_bounded_by_lock_sum():
    setup = profiled(
        "global h: int[4];\n"
        "func main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..16 {\n"
        "    pragma omp critical\n"
        "    { h[i % 4] = h[i % 4] + 1; }\n"
        "  }\n"
        "}"
    )
    results = setup.critical_paths()
    openmp_cp = results["OpenMP"]["critical_path"]
    sequential = results["Sequential"]["critical_path"]
    # Lock-serialized work keeps the plan well above max-iteration cost,
    # but it still beats fully sequential execution.
    assert openmp_cp < sequential
    assert results["PS-PDG"]["critical_path"] <= openmp_cp


def test_helix_charges_sequential_segments_per_iteration():
    setup = profiled(
        "global a: int[16];\n"
        "func main() { var s: int = 0;\n"
        "for i in 0..16 { s = s + a[i]; a[i] = i; } print(s); }"
    )
    uid_map = loop_uid_map(setup.loops)
    header = setup.loops[0].header.name
    loop_uids = uid_map[header]
    # Pretend half the loop is a sequential segment.
    seq = frozenset(list(loop_uids)[: len(loop_uids) // 2])
    plan = ProgramPlan(
        "p", {header: LoopPlan(TECH_HELIX, sequential_uids=seq)}, uid_map
    )
    cp = CriticalPathEvaluator(setup.profile, plan).evaluate()
    assert cp < setup.profile.total()
    plan_all_seq = ProgramPlan(
        "p2",
        {header: LoopPlan(TECH_HELIX, sequential_uids=loop_uids)},
        uid_map,
    )
    cp_all = CriticalPathEvaluator(setup.profile, plan_all_seq).evaluate()
    assert cp <= cp_all


def test_dswp_bounded_by_slowest_stage_plus_fill():
    setup = profiled(
        "global a: int[16];\nglobal b: int[16];\n"
        "func main() { for i in 1..16 {\n"
        "  a[i] = a[i - 1] + 1;\n"
        "  b[i] = a[i] * 2;\n"
        "} print(b[15]); }"
    )
    uid_map = loop_uid_map(setup.loops)
    header = setup.loops[0].header.name
    uids = sorted(uid_map[header])
    half = len(uids) // 2
    plan = ProgramPlan(
        "p",
        {
            header: LoopPlan(
                TECH_DSWP,
                stage_groups=(
                    frozenset(uids[:half]),
                    frozenset(uids[half:]),
                ),
            )
        },
        uid_map,
    )
    cp = CriticalPathEvaluator(setup.profile, plan).evaluate()
    assert cp < setup.profile.total()


def test_openmp_source_plan_uses_annotations():
    setup = profiled(
        "global a: int[16];\n"
        "func main() { pragma omp parallel for\n"
        "for i in 0..16 { a[i] = i; } }"
    )
    plan = openmp_source_plan(
        setup.function, loop_uid_map(setup.loops)
    )
    assert len(plan.loop_plans) == 1
    (loop_plan,) = plan.loop_plans.values()
    assert loop_plan.technique == TECH_DOALL


def test_fig14_speedups_relative_to_openmp():
    setup = profiled(
        "global a: int[32];\nglobal k: int[32];\n"
        "func main() {\n"
        "  pragma omp parallel for\n"
        "  for i in 0..32 { a[k[i]] = a[k[i]] + 1; }\n"
        "}"
    )
    results = setup.critical_paths()
    assert results["OpenMP"]["speedup"] == 1.0
    # The PS-PDG never loses parallelism the programmer expressed.
    assert results["PS-PDG"]["speedup"] >= 1.0
    # The sequential PDG cannot prove the indirect update parallel.
    assert results["PDG"]["speedup"] < 1.0


def test_nested_parallelism_recursion():
    setup = profiled(
        "global a: int[64];\n"
        "func main() {\n"
        "  for t in 0..2 {\n"
        "    pragma omp for\n"
        "    for i in 0..64 { a[i] = a[i] + t; }\n"
        "  }\n"
        "}"
    )
    results = setup.critical_paths()
    # J&K/PS-PDG exploit the inner developer loop under the sequential
    # outer loop.
    assert results["J&K"]["critical_path"] <= results["OpenMP"][
        "critical_path"
    ]


class _PricedByTechnique:
    """Stand-in evaluator: a plan costs what ``prices`` says its
    technique for ``header`` costs — nothing else moves the price, so
    ties are exact."""

    def __init__(self, plan, header, prices, trials):
        self.plan = plan
        self.header = header
        self.prices = prices
        self.trials = trials

    def with_loop_plan(self, header_name, loop_plan):
        self.trials.append(loop_plan.technique)
        return _PricedByTechnique(
            self.plan.with_loop_plan(header_name, loop_plan),
            self.header, self.prices, self.trials,
        )

    def evaluate(self):
        loop_plan = self.plan.plan_for(self.header)
        return self.prices[loop_plan.technique if loop_plan else "SEQ"]


def _plan_with_prices(prices):
    setup = profiled(
        "global a: int[16];\nglobal b: int[16];\n"
        "func main() { for i in 1..16 {\n"
        "  a[i] = a[i - 1] + 1;\n"
        "  b[i] = a[i] * 2;\n"
        "} print(b[15]); }"
    )
    (loop,) = setup.loops
    header = loop.header.name
    trials = []
    plan, cost = abstraction_plan(
        "PDG", setup.function, setup.views["PDG"],
        lambda plan: _PricedByTechnique(plan, header, prices, trials),
        setup.loops, loop_uid_map(setup.loops),
        hierarchical_inner=False,
    )
    # The recurrence on ``a`` rules DOALL out; all three others compete.
    assert trials == ["SEQ", TECH_HELIX, TECH_DSWP]
    technique = plan.plan_for(header).technique
    # The plan comes with its winning trial's price.
    assert cost == prices[technique]
    return technique


def test_cost_ties_keep_the_first_technique_tried():
    assert _plan_with_prices({"SEQ": 5, "HELIX": 5, "DSWP": 5}) == "SEQ"
    assert _plan_with_prices({"SEQ": 9, "HELIX": 5, "DSWP": 5}) == "HELIX"
    assert _plan_with_prices({"SEQ": 5, "HELIX": 9, "DSWP": 5}) == "SEQ"
    # Only a strictly cheaper later technique displaces an earlier one.
    assert _plan_with_prices({"SEQ": 9, "HELIX": 5, "DSWP": 4}) == "DSWP"
