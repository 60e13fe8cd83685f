"""A profile's shape DAG and its recorded tree, in one comparable form.

``canonical_tree`` reads a tree the interpreter's ``Profiler`` recorded,
``expanded_shape`` unfolds a shape DAG (every iteration shape repeated by
its multiplicity); both sort a loop instance's iterations, so the two are
equal exactly when the DAG is the tree up to iteration order.
``loop_instances`` and ``count_of`` read a recorded tree.
"""

from repro.emulator import run_module


def loop_instances(profile, header_name=None):
    """All loop instances in a recorded ``FunctionProfile`` tree
    (optionally for one static loop)."""
    found = []
    stack = [profile.root]
    while stack:
        iteration = stack.pop()
        for child in iteration.children:
            if header_name is None or child.header_name == header_name:
                found.append(child)
            stack.extend(child.iterations)
    return found


def count_of(iteration, uids):
    """Direct executions in ``iteration`` of any of the static ``uids``."""
    # Iterate the (small) per-iteration counter, not the uid set.
    return sum(
        count for uid, count in iteration.counts.items() if uid in uids
    )


def canonical_tree(iteration):
    return (
        sorted(iteration.counts.items()),
        [
            (
                child.header_name,
                sorted(
                    (canonical_tree(it) for it in child.iterations),
                    key=repr,
                ),
            )
            for child in iteration.children
        ],
    )


def expanded_shape(shape):
    return (
        sorted(shape.counts.items()),
        [
            (
                child.header_name,
                sorted(
                    (
                        expanded_shape(it)
                        for it, mult in child.iterations
                        for _ in range(mult)
                    ),
                    key=repr,
                ),
            )
            for child in shape.children
        ],
    )


def recorded_profile(session):
    """The interpreter-recorded tree of ``session``'s program, checked to
    be what the session's own (compiled, shapes-only) profile interned."""
    recorded = run_module(
        session.module, session.config.function_name, profile=True
    )
    profile = session.profile
    assert expanded_shape(profile.shapes()) == canonical_tree(
        recorded.profile.root
    )
    assert profile.header_totals() == recorded.profile.header_totals()
    assert profile.total() == recorded.profile.total() == recorded.steps
    assert session.execution.output == recorded.output
    return recorded.profile
