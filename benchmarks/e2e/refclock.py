"""The in-run reference clock every gated timing is divided by.

A pure-Python spin on a shared box swings by tens of percent in
sub-second bursts, and whole runs of the same code differ by several
percent between invocations.  Both effects hit the interpreter running
the system under test and this loop alike, so an operation's time is
reported in multiples of the loop's time (unit ``ref``) sampled next to
it, not in seconds.

FROZEN: changing :data:`ITERATIONS` or the loop body rescales every
``*_rel`` number and breaks comparison with every earlier run.
"""

import time

#: 3.3 ms on the sizing machine when it is quiet, 5 ms and more when
#: its neighbours are busy.
ITERATIONS = 20_000

#: Converts a set-up time measured in loop times back to seconds.
NOMINAL_S = 0.004


def spin():
    """Run the reference loop once; return its wall time in seconds."""
    table = {}
    acc = 1
    start = time.perf_counter()
    for i in range(ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


def sample(seconds):
    """Mean loop time over back-to-back spins lasting at least ``seconds``.

    The machine's speed wanders at every timescale, so an operation is
    best compared with reference spins spread over a stretch comparable
    to its own length, not with one 5 ms spin.
    """
    total = spin()
    spins = 1
    while total < seconds:
        total += spin()
        spins += 1
    return total / spins
