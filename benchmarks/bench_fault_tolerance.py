"""Fault-tolerance gate: crash recovery on LU.

Run explicitly (bench files are not collected by the default suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_tolerance.py -q -s

Every processes-backend region dispatch is supervised: fault-plan
consultation, infra/program failure classification, and the recovery
bookkeeping wrap the pool round-trip.  The gate injects a deterministic
worker crash (``crash:region=0:worker=0``) into LU at ``-O2`` and
asserts the run recovers to **byte-identical** output with the recovery
visible in the region stats (``retries``/``faults_injected``/
``recovery_ms``).

Rows land in ``BENCH_fault_tolerance.json``; ``seconds`` is report-only
in the baseline gate (CI machines vary).
"""

import time

import pytest

from repro.opt import OptLevel, optimize_plan
from repro.runtime import backends, faults, knobs, run_plan

KERNEL = "LU"
BACKEND = "processes"
WORKERS = 4
CRASH_SPEC = "crash:region=0:worker=0"


@pytest.fixture(scope="module")
def lu_plan(nas_sessions):
    session = nas_sessions[KERNEL]
    return optimize_plan(
        session.pspdg, session.plan("PS-PDG"), OptLevel.O2,
    ).plan


def _run(session, plan):
    started = time.perf_counter()
    result = run_plan(
        session.pspdg, plan,
        workers=WORKERS, backend=BACKEND,
        compile_regions=False,
    )
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def fault_rows(nas_sessions, lu_plan):
    session = nas_sessions[KERNEL]
    identity = {
        "kernel": KERNEL, "backend": BACKEND, "opt": "-O2",
        "workers": WORKERS,
    }
    knobs.refresh()
    faults.reset()
    backends._reset_chunk_pool()
    _run(session, lu_plan)  # warm the chunk pool out of the timings
    baseline, clean_seconds = _run(session, lu_plan)
    rows = [dict(identity, mode="fault_free", seconds=clean_seconds)]

    knobs.REPRO_FAULTS.value = CRASH_SPEC
    recovered, crash_seconds = _run(session, lu_plan)
    knobs.refresh()
    faults.reset()
    backends._reset_chunk_pool()
    rows.append(dict(
        identity, mode="crash_recovery", seconds=crash_seconds,
        retries=sum(r["retries"] for r in recovered.parallel_regions),
        faults_injected=sum(
            r["faults_injected"] for r in recovered.parallel_regions
        ),
        recovery_ms=sum(
            r["recovery_ms"] for r in recovered.parallel_regions
        ),
        identical=recovered.output == baseline.output,
    ))
    return rows, baseline, recovered


def test_fault_tolerance_table(fault_rows, bench_json):
    rows, _baseline, _recovered = fault_rows
    path = bench_json("fault_tolerance", rows)
    print(f"\nwrote {path}")
    header = (
        f"{'kernel':7} {'mode':16} {'seconds':>9} "
        f"{'rtry':>5} {'flt':>4} {'rec-ms':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['kernel']:7} {row['mode']:16} {row['seconds']:>9.4f} "
            f"{row.get('retries', ''):>5} "
            f"{row.get('faults_injected', ''):>4} "
            f"{row.get('recovery_ms', 0.0):>8.2f}"
        )


def test_crash_recovery_is_byte_identical(fault_rows):
    """The injected crash recovers exactly, and the stats prove it ran."""
    rows, baseline, recovered = fault_rows
    assert recovered.output == baseline.output
    crash = next(row for row in rows if row["mode"] == "crash_recovery")
    assert crash["identical"] is True
    assert crash["retries"] >= 1
    assert crash["faults_injected"] >= 1
    assert crash["recovery_ms"] > 0
