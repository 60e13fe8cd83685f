"""Optimization-level gate: LU on the ``processes`` backend.

Run explicitly (bench files are not collected by the default suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_opt_levels.py -q -s

LU is the roadmap's adverse case for real process execution: its SSOR
wavefront dispatches 72 tiny (18-iteration) inner regions per run, each
paying per-worker frame pickling.  The ``-O2`` pipeline serializes those
regions (and reroutes the remaining small ones off the pool), so the
acceptance check demands that at ``-O2`` LU dispatches *measurably*
fewer process-pool payloads than ``-O0`` — and is no slower doing it.
``test_opt_levels_table`` prints the full payload/wall-clock sweep.
"""

import time

import pytest

from repro.opt import OptLevel, optimize_plan
from repro.runtime import run_plan

KERNELS = ("LU", "IS", "CG", "EP")
LEVELS = (OptLevel.O0, OptLevel.O2)
WORKERS = 4
REPETITIONS = 3


@pytest.fixture(scope="module")
def opt_plans(nas_sessions):
    """kernel -> {level -> optimized PS-PDG plan}."""
    plans = {}
    for kernel in KERNELS:
        session = nas_sessions[kernel]
        plan = session.plan("PS-PDG")
        plans[kernel] = {
            level: optimize_plan(
                session.pspdg, plan, level,
            ).plan
            for level in LEVELS
        }
    return plans


@pytest.fixture(scope="module")
def warm_pool(nas_sessions):
    """One throwaway processes run so pool startup isn't measured."""
    session = nas_sessions["EP"]
    run_plan(session.pspdg, session.plan("PS-PDG"),
             workers=2, backend="processes", compile_regions=False)


def _measure(session, plan, repetitions=REPETITIONS):
    """(payloads, payload bytes, best wall-clock) on ``processes``."""
    payloads = None
    payload_bytes = None
    best = None
    for _ in range(repetitions):
        started = time.perf_counter()
        result = run_plan(
            session.pspdg, plan,
            workers=WORKERS, backend="processes",
            compile_regions=False,
        )
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        payloads = sum(
            region["payloads"] for region in result.parallel_regions
        )
        # Miss-retry round-trips depend on pool timing; the gated
        # bytes (check_baselines.py) are the deterministic wire traffic.
        payload_bytes = sum(
            region["payload_bytes"] - region["retry_payload_bytes"]
            for region in result.parallel_regions
        )
    return payloads, payload_bytes, best


def test_opt_levels_table(nas_sessions, opt_plans, warm_pool, bench_json):
    print()
    header = (
        f"{'kernel':7} "
        + " ".join(f"{level.flag + ' payloads':>12}" for level in LEVELS)
        + " "
        + " ".join(f"{level.flag + ' bytes':>11}" for level in LEVELS)
        + " "
        + " ".join(f"{level.flag + ' time':>11}" for level in LEVELS)
    )
    print(header)
    print("-" * len(header))
    rows = []
    for kernel in KERNELS:
        session = nas_sessions[kernel]
        row = {
            level: _measure(session, opt_plans[kernel][level],
                            repetitions=1)
            for level in LEVELS
        }
        for level in LEVELS:
            payloads, payload_bytes, seconds = row[level]
            rows.append({
                "kernel": kernel,
                "backend": "processes",
                "opt": level.flag,
                "workers": WORKERS,
                "payloads": payloads,
                "payload_bytes": payload_bytes,
                "seconds": seconds,
            })
        print(
            f"{kernel:7} "
            + " ".join(f"{row[level][0]:>12}" for level in LEVELS)
            + " "
            + " ".join(f"{row[level][1]:>11}" for level in LEVELS)
            + " "
            + " ".join(
                f"{row[level][2] * 1000:>9.1f}ms" for level in LEVELS
            )
        )
    path = bench_json("opt_levels", rows)
    print(f"wrote {path}")


def test_lu_o2_dispatches_fewer_payloads_and_is_no_slower(
    nas_sessions, opt_plans, warm_pool
):
    session = nas_sessions["LU"]
    payloads_o0, bytes_o0, seconds_o0 = _measure(
        session, opt_plans["LU"][OptLevel.O0]
    )
    payloads_o2, bytes_o2, seconds_o2 = _measure(
        session, opt_plans["LU"][OptLevel.O2]
    )
    print(
        f"\nLU processes W={WORKERS}: "
        f"-O0 {payloads_o0} payloads / {bytes_o0} B / "
        f"{seconds_o0 * 1000:.1f}ms, "
        f"-O2 {payloads_o2} payloads / {bytes_o2} B / "
        f"{seconds_o2 * 1000:.1f}ms"
    )
    # "Measurably fewer": at least half the dispatches must be gone
    # (in practice -O2 removes the 72 wavefront regions entirely and
    # reroutes the small remainder, cutting payloads by >90%).
    assert payloads_o2 <= payloads_o0 // 2, (
        f"-O2 still dispatches {payloads_o2} of {payloads_o0} payloads"
    )
    # And wall-clock no worse.  The payload count above is the
    # deterministic gate; this timing check gets a 25% tolerance so
    # noisy-neighbor spikes on shared CI runners cannot flake it (-O2
    # wins by ~4x locally, far outside the tolerance).
    assert seconds_o2 <= seconds_o0 * 1.25, (
        f"-O2 slower than -O0: {seconds_o2:.4f}s vs {seconds_o0:.4f}s"
    )


def test_results_identical_across_levels(nas_sessions, opt_plans):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from support.conformance import outputs_close

    for kernel in KERNELS:
        session = nas_sessions[kernel]
        expected = session.execution.output
        for level in LEVELS:
            result = run_plan(
                session.pspdg, opt_plans[kernel][level],
                workers=WORKERS, backend="processes",
                compile_regions=False,
            )
            assert outputs_close(result.output, expected), (kernel, level)
