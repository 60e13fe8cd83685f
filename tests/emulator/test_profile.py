"""Loop-nest profile structure."""

import tracemalloc

from repro.emulator import run_source
from repro.emulator.interp import run_module
from repro.emulator.profile import Profiler
from repro.frontend import compile_source
from support.profile_shapes import count_of, iterations, loop_instances


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
        it for it in iterations(instance) if it.direct > 3
    ]
    assert len(full_iterations) == 6
    first = full_iterations[0]
    assert first.direct == full_iterations[1].direct


def test_nested_instances_attach_to_iterations():
    result = run_source(
        "func main() { for i in 0..3 { for j in 0..2 { } } }",
        profile=True,
    )
    (outer,) = loop_instances(result.profile, "for.header")
    with_children = [it for it in iterations(outer) if it.children]
    assert len(with_children) == 3
    for iteration in with_children:
        assert iteration.children[0].header_name == "for.header.1"


def test_total_is_direct_plus_children():
    result = run_source(
        "func main() { for i in 0..3 { for j in 0..2 { } } }",
        profile=True,
    )
    root = result.profile.shapes()
    assert root.total == result.steps
    assert root.total >= root.direct


def test_count_of_filters_by_uid():
    result = run_source(
        "global a: int[4];\n"
        "func main() { for i in 0..4 { a[i] = i; } }",
        profile=True,
    )
    (instance,) = loop_instances(result.profile, "for.header")
    iteration = next(
        it for it in iterations(instance) if it.direct > 3
    )
    all_uids = frozenset(iteration.counts)
    assert count_of(iteration, all_uids) == iteration.direct
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
    assert profile.shapes().direct == 2  # uids 1 and 3
    (instance,) = profile.shapes().children
    assert instance.trip_count == 2
    assert instance.total == 2
    # Two equal iterations are one shape, counted twice.
    ((_shape, multiplicity),) = instance.iterations
    assert multiplicity == 2
    assert profile.header_totals() == {"L": 2}


def test_a_long_loop_profiles_in_constant_memory():
    """The interpreter's profiler keeps only the open iterations: 20 000
    iterations of one loop intern into a handful of shapes, not one
    record each."""
    module = compile_source(
        "func main() { var s: int = 0; "
        "for i in 0..20000 { s = s + i; } print(s); }"
    )
    tracemalloc.start()
    try:
        result = run_module(module, profile=True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (instance,) = result.profile.shapes().children
    assert instance.trip_count == 20001
    assert result.profile.total() == result.steps
    assert peak < 1 << 20, f"profiled run peaked at {peak} bytes"
