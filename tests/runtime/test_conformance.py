"""Differential conformance: every backend vs the sequential emulator.

For every NAS workload, the PS-PDG-chosen plan's DOALL loops run under
all three execution backends x {1, 2, 4, 8} workers x {static, dynamic,
guided} schedules x 3 seeds, and every run must reproduce the sequential
emulator's output — bitwise for ints, :func:`math.isclose` for float
reductions (per-worker partial results may reassociate).

The ``simulated`` backend is the race-detection oracle (seeds change the
interleaving); for ``threads``/``processes`` the seeds are independent
retrials, and because partitioning and merge order are deterministic,
those retrials must also agree bit-for-bit *with each other*.
"""

import pytest

from repro.opt import OptLevel, optimize_plan
from repro.runtime import run_plan, run_source_plan
from repro.util.regionstats import parallel_report
from repro.workloads import kernel_names
from repro.workloads.nas import build_session
from support.conformance import (
    describe_mismatch,
    diff_load_balance,
    outputs_close,
    schedule_imbalance,
    wire_bytes,
)

BACKENDS = ("simulated", "threads", "processes")
SCHEDULES = ("static", "dynamic", "guided")
WORKER_COUNTS = (1, 2, 4, 8)
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def kernel_state():
    """Per kernel: (session, PS-PDG plan, sequential output) — built once."""
    state = {}
    for name in kernel_names():
        session = build_session(name)
        state[name] = (session, session.plan("PS-PDG"),
                       session.execution.output)
    return state


@pytest.fixture(scope="module")
def optimized_plans(kernel_state):
    """Per kernel: the PS-PDG plan after the -O2 and -O3 pass pipelines."""
    plans = {}
    for name, (session, plan, _expected) in kernel_state.items():
        plans[name] = {
            level: optimize_plan(
                session.pspdg, plan, level,
            ).plan
            for level in (OptLevel.O2, OptLevel.O3)
        }
    return plans


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("kernel", kernel_names())
def test_planned_loops_match_sequential(kernel, schedule, backend,
                                        kernel_state):
    session, plan, expected = kernel_state[kernel]
    for workers in WORKER_COUNTS:
        retrials = []
        for seed in SEEDS:
            result = run_plan(
                session.pspdg, plan,
                workers=workers,
                seed=seed,
                backend=backend,
                schedule=schedule,
            )
            assert outputs_close(result.output, expected), (
                f"{kernel} {backend}/{schedule} workers={workers} "
                f"seed={seed}: "
                + describe_mismatch(result.output, expected)
            )
            retrials.append(result.output)
        if backend != "simulated":
            # Deterministic partition + worker-order merge: real-backend
            # retrials agree exactly, including float bit patterns.
            assert all(out == retrials[0] for out in retrials), (
                f"{kernel} {backend}/{schedule} workers={workers}: "
                f"nondeterministic across retrials: {retrials}"
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_source_plans_match_sequential(backend, kernel_state):
    """The developer's OpenMP plan also conforms on every backend."""
    for kernel in kernel_names():
        session, _plan, expected = kernel_state[kernel]
        for workers in (2, 4):
            result = run_source_plan(
                session.module,
                session.config.function_name,
                workers=workers,
                seed=1,
                backend=backend,
            )
            assert outputs_close(result.output, expected), (
                f"{kernel} source-plan {backend} workers={workers}: "
                + describe_mismatch(result.output, expected)
            )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", kernel_names())
def test_opt_levels_conform(kernel, backend, kernel_state, optimized_plans):
    """-O0, -O2, and -O3 produce identical results on every backend.

    The -O2 plan may fuse regions, elide proven-redundant locks, and
    serialize small regions; -O3 adds tiling — none of which may change
    a single output value (ints bitwise; float reductions compare with
    isclose, since serializing a reduction changes its association
    order).
    """
    session, plan, expected = kernel_state[kernel]
    for workers in (2, 4):
        for seed in (0, 1):
            runs = [("-O0", plan)] + [
                (level.flag, optimized_plans[kernel][level])
                for level in (OptLevel.O2, OptLevel.O3)
            ]
            for label, the_plan in runs:
                result = run_plan(
                    session.pspdg, the_plan,
                    workers=workers, seed=seed, backend=backend,
                )
                assert outputs_close(result.output, expected), (
                    f"{kernel} {backend} {label} workers={workers} "
                    f"seed={seed}: "
                    + describe_mismatch(result.output, expected)
                )


def _pool_traffic(session, plan, workers):
    """``(payloads, wire bytes, output)`` of one ``processes`` run.

    Payloads are counted from the per-worker assignments — the
    optimizer's dispatch structure — because raw ``payloads`` also
    include module-miss retry round-trips, which depend on pool
    scheduling timing, not on the optimization level; so do the bytes.
    """
    result = run_plan(
        session.pspdg, plan, workers=workers, backend="processes",
    )
    regions = result.parallel_regions
    payloads = sum(
        1
        for region in regions
        if region["payloads"]
        for worker in region["per_worker"]
        if worker["iterations"]
    )
    return payloads, wire_bytes(regions), result.output


def test_opt_never_dispatches_more_payloads(kernel_state, optimized_plans):
    """On ``processes``, rising -O levels never increase pool payloads.

    Two levels must also *win*.  LU's -O2 serializes the 72 tiny
    wavefront regions: at most half the -O0 payloads (12 of 300 at 4
    workers).  At 8 workers -O3's tiling caps LU's and SP's trip-20
    regions at ``ceil(trip / tile)`` partitions, so -O3 ships strictly
    fewer payloads and bytes than -O2 (LU 24 -> 12 payloads, 93 208 ->
    46 664 B; SP 24 -> 16, 179 992 -> 120 102 B); at 4 workers the two
    tie.  Bytes are compared on a pool that already holds the module.
    """
    for kernel in kernel_names():
        session, plan, _expected = kernel_state[kernel]
        counts = {}
        plans = [("O0", plan)] + [
            (level.flag, optimized_plans[kernel][level])
            for level in (OptLevel.O2, OptLevel.O3)
        ]
        for label, the_plan in plans:
            counts[label], _wire, _output = _pool_traffic(
                session, the_plan, workers=4,
            )
        assert counts["-O2"] <= counts["O0"], (
            f"{kernel}: -O2 dispatched {counts['-O2']} payloads vs "
            f"{counts['O0']} at -O0"
        )
        assert counts["-O3"] <= counts["-O2"], (
            f"{kernel}: -O3 dispatched {counts['-O3']} payloads vs "
            f"{counts['-O2']} at -O2"
        )
        if kernel == "LU":
            assert counts["-O2"] <= counts["O0"] // 2, (
                f"LU: -O2 still dispatches {counts['-O2']} of "
                f"{counts['O0']} payloads"
            )
    for kernel in ("LU", "SP"):
        session, _plan, expected = kernel_state[kernel]
        o2_plan = optimized_plans[kernel][OptLevel.O2]
        o3_plan = optimized_plans[kernel][OptLevel.O3]
        _pool_traffic(session, o2_plan, workers=8)  # ships the module
        o2 = _pool_traffic(session, o2_plan, workers=8)
        o3 = _pool_traffic(session, o3_plan, workers=8)
        assert o3[0] < o2[0], (
            f"{kernel}: -O3 ships {o3[0]} payloads vs -O2's {o2[0]}"
        )
        assert o3[1] < o2[1], (
            f"{kernel}: -O3 ships {o3[1]} B vs -O2's {o2[1]} B"
        )
        for _payloads, _wire, output in (o2, o3):
            assert outputs_close(output, expected), kernel


def test_load_balance_diff_static_vs_guided(kernel_state):
    """Per-worker step diffing flags no regression between the schedules.

    Partitioning is deterministic, so per-worker step counts are exact;
    ``diff_load_balance`` compares a candidate schedule's worst region
    against a baseline's and flags anything beyond the tolerance factor.
    EP's uniform 256-iteration loop must balance under both static and
    guided (in either direction).
    """
    session, plan, _expected = kernel_state["EP"]
    regions = {}
    for schedule in ("static", "guided"):
        result = run_plan(
            session.pspdg, plan,
            workers=4, backend="threads", schedule=schedule,
        )
        assert result.parallel_regions
        regions[schedule] = result.parallel_regions
    flagged = diff_load_balance(regions["static"], regions["guided"])
    assert not flagged, f"guided regressed balance vs static: {flagged}"
    flagged = diff_load_balance(regions["guided"], regions["static"])
    assert not flagged, f"static regressed balance vs guided: {flagged}"


def test_load_balance_diff_flags_synthetic_regression():
    """The diff helper actually fires on a skewed per-worker profile."""
    even = [{
        "header": "loop",
        "per_worker": [
            {"worker": i, "iterations": 8, "steps": 100} for i in range(4)
        ],
    }]
    skewed = [{
        "header": "loop",
        "per_worker": [
            {"worker": 0, "iterations": 29, "steps": 2900},
            {"worker": 1, "iterations": 1, "steps": 100},
            {"worker": 2, "iterations": 1, "steps": 100},
            {"worker": 3, "iterations": 1, "steps": 100},
        ],
    }]
    assert schedule_imbalance(even) == pytest.approx(1.0)
    flagged = diff_load_balance(even, skewed)
    assert flagged and flagged[0]["header"] == "loop"
    assert flagged[0]["imbalance"] > 1.5


def test_per_worker_diagnostics_recorded(kernel_state):
    """Runs surface per-region, per-worker timing via the session."""
    session, plan, _expected = kernel_state["EP"]
    result = session.run(plan, workers=4, backend="threads")
    assert result.parallel_regions, "no region stats recorded"
    region = result.parallel_regions[0]
    assert region["backend"] == "threads"
    assert region["workers"] == 4
    assert len(region["per_worker"]) == 4
    assert sum(w["iterations"] for w in region["per_worker"]) == (
        region["iterations"]
    )
    assert sum(w["steps"] for w in region["per_worker"]) > 0
    assert "threads" in parallel_report(result.parallel_regions)
