"""A warm ``threads`` dispatch costs a constant number of calls.

Counted like ``op_calls`` of the end-to-end benchmark: every Python
``call`` and ``c_call`` event on the dispatching thread during one warm
``Session.run``, with :func:`sys.setprofile` (the team's threads are not
hooked).  The program runs one ``parallel_for`` inside a serial loop,
so runs of ``R`` and ``2R`` serial trips differ by ``R`` dispatches and
nothing else: their difference over ``R`` is the cost of one dispatch.

That cost must not grow with the region's trip count or with how many
registers the enclosing frame holds: the partition is the region's
memo while its bounds, the worker count, the schedule and the chunk
stay put, and a worker frame copies only the registers its loops read.
It must also stay below :data:`K`; a dispatch that rebuilds its
prepared record, schedulers, bound getters, privatization plan,
partition, locks or compiled-entry table, or hands its jobs over
through futures, costs more.  What the run pays besides its dispatches
— the intercept of ``warm_calls(R)`` as a line in ``R`` — must stay
below :data:`FIXED`: rechecking the recipes or rescanning the region
stops on every run costs more.
"""

import gc
import sys

import pytest

from repro import Session
from repro.runtime import backends

#: Calls per warm dispatch, at most: the measured 39 (CPython 3.11) of
#: a compiled ``static`` run of two workers, plus 25 %.  Handing the
#: backend a per-dispatch region object and checking the memo's key in
#: two parts measured 40; partitioning, looking up compiled chunks and
#: building locks on every entry 94 on 3.10 and 3.11 (83 on 3.12 and
#: 3.13); the dispatcher before that, which rebuilt every dispatch's
#: plan and handed off through ``concurrent.futures``, 190 on 3.11.
K = 48

#: Calls of a warm run besides its dispatches, at most: the measured 74
#: (CPython 3.11) plus 25 %.  Checking whether the recipes changed since
#: the last run measured 79; validating every recipe's chunk and
#: rescanning the region stops on every run, 95.
FIXED = 92

ROUNDS = 10


def program(rounds, trip, extra=0):
    """``rounds`` serial trips around one ``trip``-iteration region, after
    ``extra`` pairs of scalars the region never reads."""
    scalars = "".join(
        f"  var u{k}: int = {k} * 3;\n  var w{k}: int = u{k} + 1;\n"
        for k in range(extra)
    )
    return f"""
global a: int[{trip}];

func main() {{
  var s: int = 0;
{scalars}  for t in 0..{rounds} {{
    pragma omp parallel_for
    for i in 0..{trip} {{
      a[i] = a[i] + t + i;
    }}
  }}
  print(a[0], a[{trip} - 1]);
}}
"""


def warm_calls(rounds, trip=8, extra=0, compile_regions=True):
    """Calls on this thread during one warm source-plan run on threads."""
    session = Session.from_source(
        program(rounds, trip, extra), name="dispatch", workers=2,
        schedule="static", compile_regions=compile_regions,
    )

    def run():
        return session.run(backend="threads", workers=2)

    expected = session.execution.output
    assert run().output == expected  # cold: lowers, prepares, spawns
    events = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

    # A collection would run finalizers of earlier tests' garbage here.
    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert result.output == expected
    assert len(result.parallel_regions) == rounds
    return events[0]


def slope(**options):
    return (
        warm_calls(2 * ROUNDS, **options) - warm_calls(ROUNDS, **options)
    ) / ROUNDS


@pytest.fixture(autouse=True)
def fresh_team():
    backends._retire_team()
    yield
    backends._retire_team()


def test_a_warm_dispatch_costs_at_most_k_calls():
    assert slope() <= K


def test_a_warm_run_costs_at_most_fixed_calls_besides_its_dispatches():
    once, twice = warm_calls(ROUNDS), warm_calls(2 * ROUNDS)
    assert once - ROUNDS * (twice - once) / ROUNDS <= FIXED


def test_the_cost_does_not_grow_with_the_trip_count():
    assert warm_calls(ROUNDS, trip=800) == warm_calls(ROUNDS, trip=8)


def test_the_cost_does_not_grow_with_the_live_registers():
    # Interpreted, the enclosing frame holds every register it computed
    # (a compiled stretch hands the region only what it reads), so here
    # 80 more registers are live at each dispatch.
    assert slope(extra=40, compile_regions=False) == slope(
        compile_regions=False
    )
