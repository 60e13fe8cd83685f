"""Execution backends demo: one plan, three ways to run it.

The same PS-PDG-chosen plan executes on

* ``simulated`` — the seeded virtual-thread interleaver (the oracle:
  wrong plans show up as nondeterminism across seeds),
* ``threads``   — real OS threads sharing the interpreter's memory,
* ``processes`` — real OS processes with serialized per-worker frames,

all consuming the same static/dynamic/guided chunk partition, so every
backend produces the sequential result (floats may reassociate).  The
per-region, per-worker table at the end is
``parallel_report(regions)`` over every run's ``result.parallel_regions``.

Run:  python examples/backends_demo.py
"""

import time

from repro import Session
from repro.util.regionstats import parallel_report

KERNEL = "EP"
WORKERS = 4


def main():
    session = Session.from_kernel(KERNEL)
    plan = session.plan("PS-PDG")
    expected = session.execution.output
    print(f"{KERNEL}: sequential output {expected}")
    print(plan.describe())
    print()

    regions = []
    for backend in ("simulated", "threads", "processes"):
        for schedule in ("static", "dynamic", "guided"):
            started = time.perf_counter()
            result = session.run(
                plan, workers=WORKERS, backend=backend, schedule=schedule
            )
            elapsed = (time.perf_counter() - started) * 1000
            regions.extend(result.parallel_regions)
            status = "ok" if len(result.output) == len(expected) else "??"
            print(
                f"  {backend:10} {schedule:8} {elapsed:7.1f}ms  "
                f"[{status}] {result.output}"
            )

    print()
    print(parallel_report(regions))


if __name__ == "__main__":
    main()
