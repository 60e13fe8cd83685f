"""A profile's shape DAG, walked once per dynamic iteration.

``iterations`` repeats each iteration shape of an instance by its
multiplicity; ``loop_instances`` visits every dynamic instance of a
profile through it.  ``expanded_shape`` unfolds a whole DAG that way and
sorts each instance's iterations, so two profiles are equal under it
exactly when they record the same run up to iteration order — whatever
table each was interned into.  ``count_of`` reads one iteration's counts.
"""

from repro.emulator.interp import run_module


def iterations(instance):
    """An instance shape's iterations, each shape repeated by its
    multiplicity: one entry per dynamic iteration."""
    return [
        shape for shape, mult in instance.iterations for _ in range(mult)
    ]


def loop_instances(profile, header_name=None):
    """All dynamic loop instances in a ``FunctionProfile``'s shapes
    (optionally for one static loop)."""
    found = []
    stack = [profile.shapes()]
    while stack:
        iteration = stack.pop()
        for child in iteration.children:
            if header_name is None or child.header_name == header_name:
                found.append(child)
            stack.extend(iterations(child))
    return found


def count_of(iteration, uids):
    """Direct executions in ``iteration`` of any of the static ``uids``."""
    # Iterate the (small) per-iteration counter, not the uid set.
    return sum(
        count for uid, count in iteration.counts.items() if uid in uids
    )


def expanded_shape(shape):
    return (
        sorted(shape.counts.items()),
        [
            (
                child.header_name,
                sorted(
                    (expanded_shape(it) for it in iterations(child)),
                    key=repr,
                ),
            )
            for child in shape.children
        ],
    )


def recorded_profile(session):
    """The interpreter's profile of ``session``'s program, checked to be
    the run the session's own (compiled) profile interned."""
    recorded = run_module(
        session.module, session.config.function_name, profile=True
    )
    profile = session.profile
    assert expanded_shape(profile.shapes()) == expanded_shape(
        recorded.profile.shapes()
    )
    assert profile.header_totals() == recorded.profile.header_totals()
    assert profile.total() == recorded.profile.total() == recorded.steps
    assert session.execution.output == recorded.output
    return recorded.profile
