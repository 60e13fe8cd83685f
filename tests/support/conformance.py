"""Output comparison for the differential conformance suite.

Backends may reassociate floating-point reductions (per-worker partial
sums merged in worker order), so float values compare with
:func:`math.isclose`; everything else — labels, shapes, ints, bools —
must be bitwise equal.
"""

import math

from repro.planner.machine import MachineModel

REL_TOL = 1e-9
ABS_TOL = 1e-12


def values_close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def outputs_close(actual, expected):
    """True when two interpreter ``output`` lists agree (floats: isclose)."""
    if len(actual) != len(expected):
        return False
    for (label_a, values_a), (label_b, values_b) in zip(actual, expected):
        if label_a != label_b or len(values_a) != len(values_b):
            return False
        for value_a, value_b in zip(values_a, values_b):
            if not values_close(value_a, value_b):
                return False
    return True


def describe_mismatch(actual, expected):
    return f"parallel output {actual!r} != sequential output {expected!r}"


# -- chaos conformance ---------------------------------------------------------
#
# Fault-injection sweeps assert a two-outcome contract: a faulted run
# either recovers to the fault-free output or surfaces a clean
# EmulationError.  Hangs, silent corruption, and non-Emulation
# exceptions all violate it.

#: Deterministic fault scenarios every kernel must survive (recover or
#: fail cleanly).  Region/worker selectors hit the first regions any
#: multi-region kernel dispatches; single-region kernels simply match
#: fewer of them.
CHAOS_SCENARIOS = (
    "crash:region=0:worker=0",
    "corrupt_wire:region=0:worker=1",
    "drop_result:region=1:worker=0",
    "crash:region=0:worker=0;corrupt_wire:region=1;drop_result:region=2",
)


def chaos_outcome(run):
    """Run ``run()`` under injected faults; classify the result.

    Returns ``("ok", output)`` when the run completes, or
    ``("error", exc)`` when it surfaces a clean
    :class:`~repro.util.errors.EmulationError`.  Any other exception —
    including infra leakage like a pool's closed pipe — propagates,
    failing the test: fault tolerance must never turn an injected fault
    into an unclassified crash.
    """
    from repro.util.errors import EmulationError

    try:
        return ("ok", run())
    except EmulationError as exc:
        return ("error", exc)


# -- per-worker load-balance diffing -------------------------------------------
#
# Region stats carry deterministic per-worker step counts (partitioning
# is decided once, by the scheduler), so schedules can be compared for
# load balance without wall-clock noise.

#: A schedule whose imbalance exceeds a baseline's by more than this
#: factor is flagged as a load-balance regression.
BALANCE_REGRESSION_FACTOR = 1.5


def worker_imbalance(region):
    """max/mean per-worker steps for one region (1.0 = perfectly even).

    Workers with no iterations are excluded from the mean: a 20-iteration
    loop on 8 workers idles some of them under any chunking, which is a
    partition-width property, not a balance property of the schedule.
    """
    steps = [
        worker["steps"]
        for worker in region["per_worker"]
        if worker["iterations"]
    ]
    if not steps or sum(steps) == 0:
        return 1.0
    mean = sum(steps) / len(steps)
    return max(steps) / mean


def schedule_imbalance(regions):
    """Worst per-region imbalance across a run's parallel regions."""
    if not regions:
        return 1.0
    return max(worker_imbalance(region) for region in regions)


def diff_load_balance(baseline_regions, candidate_regions,
                      factor=BALANCE_REGRESSION_FACTOR):
    """Compare two runs' per-worker balance; return flagged regressions.

    Returns a list of dicts (one per flagged candidate region) with the
    region header and both imbalance figures — empty when the candidate
    schedule is at most ``factor`` times worse than the baseline's worst
    region.
    """
    baseline = schedule_imbalance(baseline_regions)
    flagged = []
    for region in candidate_regions:
        imbalance = worker_imbalance(region)
        if imbalance > baseline * factor:
            flagged.append({
                "header": region["header"],
                "imbalance": imbalance,
                "baseline": baseline,
            })
    return flagged


def wire_bytes(regions):
    """Bytes a run's regions put on the wire: fixed by the plan, plus one
    module copy per pool child that did not hold the module yet."""
    return sum(region["payload_bytes"] for region in regions)


#: Thresholds absurdly low: every region looks worth dispatching, so a
#: processes run pays per-dispatch wire costs the model claimed were
#: free — the mis-calibration one observed run must re-price.
MISCALIBRATED = MachineModel(
    serial_region_cost=1,
    threads_region_cost=2,
    payload_cost_per_byte=1e-9,
)
