"""Loop-nest profile structure."""

from repro.emulator import run_source
from repro.emulator.profile import Profiler
from support.profile_shapes import count_of, loop_instances


def test_iteration_counts_per_static_instruction():
    result = run_source(
        "global a: int[6];\n"
        "func main() { for i in 0..6 { a[i] = i; } }",
        profile=True,
    )
    (instance,) = loop_instances(result.profile, "for.header")
    # 6 full iterations plus the final header evaluation.
    assert instance.trip_count == 7
    full_iterations = [
        it for it in instance.iterations if it.direct_total() > 3
    ]
    assert len(full_iterations) == 6
    first = full_iterations[0]
    assert first.direct_total() == full_iterations[1].direct_total()


def test_nested_instances_attach_to_iterations():
    result = run_source(
        "func main() { for i in 0..3 { for j in 0..2 { } } }",
        profile=True,
    )
    (outer,) = loop_instances(result.profile, "for.header")
    with_children = [it for it in outer.iterations if it.children]
    assert len(with_children) == 3
    for iteration in with_children:
        assert iteration.children[0].header_name == "for.header.1"


def test_total_is_direct_plus_children():
    result = run_source(
        "func main() { for i in 0..3 { for j in 0..2 { } } }",
        profile=True,
    )
    root = result.profile.root
    assert root.total() == result.steps
    assert root.total() >= root.direct_total()


def test_count_of_filters_by_uid():
    result = run_source(
        "global a: int[4];\n"
        "func main() { for i in 0..4 { a[i] = i; } }",
        profile=True,
    )
    (instance,) = loop_instances(result.profile, "for.header")
    iteration = next(
        it for it in instance.iterations if it.direct_total() > 3
    )
    all_uids = frozenset(iteration.counts)
    assert count_of(iteration, all_uids) == iteration.direct_total()
    assert count_of(iteration, frozenset()) == 0


def test_profiler_manual_protocol():
    profiler = Profiler("f")
    profiler.count(1)
    profiler.enter_loop("L")
    profiler.count(2)
    profiler.next_iteration()
    profiler.count(2)
    profiler.exit_loop()
    profiler.count(3)
    profile = profiler.finish()
    assert profile.root.direct_total() == 2  # uids 1 and 3
    (instance,) = profile.root.children
    assert instance.trip_count == 2
    assert instance.total() == 2
