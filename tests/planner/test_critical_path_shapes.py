"""The shape-DAG evaluator against the tree-walking oracle, and the DAG itself.

``support.reference_critical_path`` is the evaluator this repo shipped
before profiles were interned into shapes; the shipped one must agree
with it *exactly* on random plans over synthetic profile trees and over
``support.progen`` programs — DOALL with serialized uids, HELIX and DSWP
whose uid sets wholly contain, partially cut and miss nested loops, empty
loops, overlapping stages — and after any chain of one-loop re-plans.
"""

import itertools
import random

import pytest

from repro import Session
from repro.emulator.profile import FunctionProfile, LoopInstanceProfile
from repro.planner.critical_path import CriticalPathEvaluator
from repro.planner.plans import (
    TECH_DOALL,
    TECH_DSWP,
    TECH_HELIX,
    TECH_SEQ,
    LoopPlan,
    ProgramPlan,
    abstraction_plan,
    loop_uid_map,
)
from support.profile_shapes import (
    canonical_tree,
    expanded_shape,
    loop_instances,
    recorded_profile,
)
from support.progen import generate_nest_program, generate_program
from support.reference_critical_path import (
    ReferenceCriticalPathEvaluator,
    reference_critical_path,
)

# -- static loop forests: (header, own uids, nested forests) ------------------


def _synthetic_forest(rng, uids, depth=0, prefix="L"):
    forest = []
    for n in range(rng.randrange(0 if depth else 1, 3)):
        header = f"{prefix}.{n}"
        own = [next(uids) for _ in range(rng.randrange(0, 4))]
        nested = (
            _synthetic_forest(rng, uids, depth + 1, header)
            if depth < 2 else []
        )
        forest.append((header, own, nested))
    return forest


def _forest_of(loops, uid_map):
    """The same structure for a compiled function's natural loops."""

    def node(loop):
        nested = frozenset().union(
            *(uid_map[child.header.name] for child in loop.children)
        )
        own = sorted(uid_map[loop.header.name] - nested)
        return (loop.header.name, own, [node(c) for c in loop.children])

    return [node(loop) for loop in loops if loop.parent is None]


def _flatten(forest):
    for loop in forest:
        yield loop
        yield from _flatten(loop[2])


def _full_uids(loop):
    _header, own, nested = loop
    return frozenset(own).union(*(_full_uids(child) for child in nested))


# -- synthetic dynamic profiles ------------------------------------------------


def _run_iteration(rng, iteration, own, nested):
    # Few behaviours per loop, so iterations repeat shapes.
    pattern = rng.randrange(3)
    for k, uid in enumerate(own):
        if (k + pattern) % 3:
            iteration.add(uid, 1 + (k + pattern) % 2)
    for child in nested:
        if rng.random() < 0.8:
            iteration.children.append(_run_instance(rng, child))


def _run_instance(rng, loop):
    header, own, nested = loop
    instance = LoopInstanceProfile(header)
    for _ in range(rng.choice((0, 1, 1, 2, 3, 5))):
        _run_iteration(rng, instance.begin_iteration(), own, nested)
    return instance


def _synthetic_case(seed):
    rng = random.Random(seed)
    uids = itertools.count(1)
    root_uids = [next(uids) for _ in range(2)]
    forest = _synthetic_forest(rng, uids)
    profile = FunctionProfile("main")
    for uid in root_uids:
        profile.root.add(uid, rng.randrange(1, 4))
    for loop in forest * 2:
        profile.root.children.append(_run_instance(rng, loop))
    # A header the uid map does not know is an empty loop to the model.
    uid_map = {
        loop[0]: _full_uids(loop)
        for loop in _flatten(forest)
        if rng.random() < 0.9
    }
    return rng, profile, forest, uid_map


# -- random plans --------------------------------------------------------------


def _random_uids(rng, loop, universe):
    """Own work plus nested loops wholly inside, cut in half, or missed."""
    _header, own, nested = loop
    descendants = list(_flatten(nested))
    outside = sorted(universe - _full_uids(loop))
    chosen = set()
    for _ in range(rng.randrange(0, 3)):
        kind = rng.choice(("own", "whole", "partial", "miss"))
        if kind == "own":
            chosen.update(rng.sample(own, rng.randrange(len(own) + 1)))
        elif kind == "miss":
            chosen.update(rng.sample(outside, min(2, len(outside))))
        elif descendants:
            inner = sorted(_full_uids(rng.choice(descendants)))
            chosen.update(
                inner if kind == "whole" else inner[: len(inner) // 2]
            )
    return frozenset(chosen)


def _random_loop_plan(rng, loop, universe):
    technique = rng.choice((TECH_SEQ, TECH_DOALL, TECH_HELIX, TECH_DSWP))
    if technique != TECH_DSWP:
        return LoopPlan(
            technique,
            serialized_uids=_random_uids(rng, loop, universe),
            sequential_uids=_random_uids(rng, loop, universe),
        )
    pool = sorted(_full_uids(loop))
    rng.shuffle(pool)
    count = rng.randrange(0, 4)
    stages = [frozenset(pool[k::count]) for k in range(count)]
    if rng.random() < 0.4:
        # Not a partition any more: a stage overlapping the others.
        stages.append(_random_uids(rng, loop, universe))
    return LoopPlan(TECH_DSWP, stage_groups=tuple(stages))


def _random_plan(rng, forest, uid_map):
    universe = frozenset().union(*(_full_uids(loop) for loop in forest))
    loop_plans = {
        loop[0]: _random_loop_plan(rng, loop, universe)
        for loop in _flatten(forest)
        if rng.random() < 0.7
    }
    return ProgramPlan("random", loop_plans, uid_map), universe


def _check_against_reference(rng, profile, forest, uid_map, context,
                             recorded=None):
    """``recorded`` is the tree the reference walks when ``profile`` is a
    session's shapes-only one (default: ``profile``'s own tree)."""
    recorded = profile if recorded is None else recorded
    plan, universe = _random_plan(rng, forest, uid_map)
    evaluator = CriticalPathEvaluator(profile, plan)
    assert evaluator.evaluate() == reference_critical_path(
        recorded, plan
    ), context
    # One-loop re-plans reuse the parent evaluator's results; whatever
    # they keep must still be right for the new plan.
    loops = list(_flatten(forest))
    for step in range(4):
        loop = rng.choice(loops)
        evaluator = evaluator.with_loop_plan(
            loop[0], _random_loop_plan(rng, loop, universe)
        )
        assert evaluator.evaluate() == reference_critical_path(
            recorded, evaluator.plan
        ), f"{context} re-plan {step} of {loop[0]}"


@pytest.mark.parametrize("chunk", range(0, 300, 50))
def test_matches_reference_on_synthetic_profiles(chunk):
    for seed in range(chunk, chunk + 50):
        rng, profile, forest, uid_map = _synthetic_case(seed)
        for _ in range(3):
            _check_against_reference(
                rng, profile, forest, uid_map, f"seed={seed}"
            )


def _progen_sessions():
    for seed in range(24):
        yield f"program-{seed}", generate_program(seed)
        yield f"nest-{seed}", generate_nest_program(seed)


@pytest.mark.parametrize("name,source", list(_progen_sessions()))
def test_matches_reference_on_generated_programs(name, source):
    session = Session.from_source(source, name=name)
    uid_map = loop_uid_map(session.loops)
    forest = _forest_of(session.loops, uid_map)
    rng = random.Random(name)
    recorded = recorded_profile(session)
    for _ in range(5):
        _check_against_reference(
            rng, session.profile, forest, uid_map, name, recorded
        )


@pytest.mark.parametrize("name,source", list(_progen_sessions())[::3])
def test_planner_picks_the_reference_plans(name, source):
    """Same trials, same costs, same ties: identical chosen plans."""
    session = Session.from_source(source, name=name)
    uid_map = loop_uid_map(session.loops)
    for view_name, view in session.views.items():
        (plan, cost), (reference_plan, reference_cost) = [
            abstraction_plan(
                view_name, session.function, view,
                lambda plan: evaluator_class(profile, plan),
                session.loops, uid_map,
                hierarchical_inner=view_name != "PDG",
                plan_all_loops=view_name == "PS-PDG",
            )
            for evaluator_class, profile in (
                (CriticalPathEvaluator, session.profile),
                (ReferenceCriticalPathEvaluator, recorded_profile(session)),
            )
        ]
        assert plan.loop_plans == reference_plan.loop_plans, view_name
        assert plan == session.plan(view_name)
        # The winning trial's price is the plan's price from scratch.
        assert cost == reference_cost, view_name
        assert cost == CriticalPathEvaluator(session.profile, plan).evaluate()


# -- the DAG is the tree, up to iteration order ---------------------------------


def _instance_shapes(shape, seen):
    for child in shape.children:
        if child not in seen:
            seen.add(child)
            yield child
            for iteration, _mult in child.iterations:
                yield from _instance_shapes(iteration, seen)


def _check_shape_invariants(profile):
    root = profile.shapes()
    assert profile.shapes() is root
    assert root.total == profile.total()
    assert root.direct == profile.root.direct_total()
    assert expanded_shape(root) == canonical_tree(profile.root)
    trips = {}
    for instance in loop_instances(profile):
        trips.setdefault(instance.header_name, set()).add(
            instance.trip_count
        )
    for shape in _instance_shapes(root, set()):
        assert shape.trip_count == sum(m for _it, m in shape.iterations)
        assert shape.trip_count in trips[shape.header_name]
        assert shape.total == sum(
            it.total * mult for it, mult in shape.iterations
        )
        assert len({it for it, _m in shape.iterations}) == len(
            shape.iterations
        )
        assert shape.header_name in shape.headers
    assert profile.header_totals() == {
        header: sum(
            instance.total() for instance in loop_instances(profile, header)
        )
        for header in trips
    }


@pytest.mark.parametrize("chunk", range(0, 60, 20))
def test_shapes_preserve_synthetic_trees(chunk):
    for seed in range(chunk, chunk + 20):
        _check_shape_invariants(_synthetic_case(seed)[1])


@pytest.mark.parametrize("kernel", ["IS", "LU"])
def test_shapes_preserve_kernel_profiles(kernel):
    session = Session.from_kernel(kernel)
    recorded = recorded_profile(session)
    _check_shape_invariants(recorded)
    distinct = set()
    dynamic = 0
    for instance in loop_instances(recorded):
        dynamic += instance.trip_count
    for shape in _instance_shapes(session.profile.shapes(), set()):
        distinct.update(it for it, _m in shape.iterations)
    # The point of interning: thousands of iterations, dozens of shapes.
    assert dynamic > 2000 and len(distinct) < 60


def _single_loop_profile(trips):
    profile = FunctionProfile("main")
    profile.root.add(1)
    instance = LoopInstanceProfile("L")
    for _ in range(trips):
        instance.begin_iteration().add(2, 3)
    profile.root.children.append(instance)
    return profile


@pytest.mark.parametrize(
    "technique", [TECH_SEQ, TECH_DOALL, TECH_HELIX, TECH_DSWP]
)
def test_zero_trip_loop_costs_nothing(technique):
    profile = _single_loop_profile(0)
    (shape,) = profile.shapes().children
    assert shape.iterations == ()
    assert (shape.trip_count, shape.total) == (0, 0)
    plan = ProgramPlan(
        "p",
        {"L": LoopPlan(
            technique,
            serialized_uids=frozenset({2}),
            stage_groups=(frozenset({2}),),
        )},
        {"L": frozenset({2})},
    )
    assert CriticalPathEvaluator(profile, plan).evaluate() == 1
    assert reference_critical_path(profile, plan) == 1


def test_single_shape_loop_is_one_node_with_its_trip_count():
    profile = _single_loop_profile(7)
    (shape,) = profile.shapes().children
    ((iteration, multiplicity),) = shape.iterations
    assert multiplicity == shape.trip_count == 7
    assert (iteration.direct, shape.total) == (3, 21)
    uid_map = {"L": frozenset({2})}
    doall = ProgramPlan("p", {"L": LoopPlan(TECH_DOALL)}, uid_map)
    locked = ProgramPlan(
        "p",
        {"L": LoopPlan(TECH_DOALL, serialized_uids=frozenset({2}))},
        uid_map,
    )
    assert CriticalPathEvaluator(profile, doall).evaluate() == 1 + 3
    assert CriticalPathEvaluator(profile, locked).evaluate() == 1 + 21
