"""``-O3`` gate: LU and SP on the ``processes`` backend, ``-O2`` vs ``-O3``.

Run explicitly (bench files are not collected by the default suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_o3.py -q -s

The two kernels exercise the two ways the ``-O3`` tier pays off:

* **SP** — three trip-20 DOALL regions whose per-worker chunks are far
  below the machine model's efficient grain.  Tiling caps each dispatch
  at ``ceil(trip / tile)`` partitions, so at 8 workers the region ships
  fewer, fatter payloads.
* **LU** — the SSOR wavefront.  Interchange speculates on the
  non-affine anti-diagonal subscript, the oracle vetoes it (the
  dependence really is carried), and the reverted inner loop must then
  be serialized exactly as ``-O2`` would — while the surviving regions
  tile.  ``-O3`` must keep LU's ``-O2`` serialization win *and* add the
  tiling win on top.

The payload-count assertions are the deterministic gate; wall-clock is
recorded for the trajectory file but asserted only with a generous
tolerance (``-O3`` must not be measurably slower).
"""

import time

import pytest

from repro.opt import OptLevel, optimize_plan
from repro.runtime import run_plan

KERNELS = ("LU", "SP")
LEVELS = (OptLevel.O2, OptLevel.O3)
WORKERS = 8
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


def test_o3_table(nas_sessions, opt_plans, warm_pool, bench_json):
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
            level: _measure(session, opt_plans[kernel][level])
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
    path = bench_json("o3", rows)
    print(f"wrote {path}")


def test_o3_beats_o2_on_lu_and_sp(nas_sessions, opt_plans, warm_pool):
    for kernel in KERNELS:
        session = nas_sessions[kernel]
        payloads_o2, bytes_o2, seconds_o2 = _measure(
            session, opt_plans[kernel][OptLevel.O2]
        )
        payloads_o3, bytes_o3, seconds_o3 = _measure(
            session, opt_plans[kernel][OptLevel.O3]
        )
        print(
            f"\n{kernel} processes W={WORKERS}: "
            f"-O2 {payloads_o2} payloads / {bytes_o2} B / "
            f"{seconds_o2 * 1000:.1f}ms, "
            f"-O3 {payloads_o3} payloads / {bytes_o3} B / "
            f"{seconds_o3 * 1000:.1f}ms"
        )
        # The deterministic gate: tiling must cut the dispatch count
        # (at 8 workers every trip-20 region drops from 8 chunks to
        # ceil(20/tile)), and the wire must carry fewer bytes with it.
        assert payloads_o3 < payloads_o2, (
            f"{kernel}: -O3 ships {payloads_o3} payloads vs "
            f"-O2's {payloads_o2}"
        )
        assert bytes_o3 < bytes_o2, (
            f"{kernel}: -O3 ships {bytes_o3} B vs -O2's {bytes_o2} B"
        )
        # Wall-clock must not regress; generous tolerance so CI noise
        # cannot flake it (locally -O3 wins outright on both kernels).
        assert seconds_o3 <= seconds_o2 * 1.25, (
            f"{kernel}: -O3 slower than -O2: "
            f"{seconds_o3:.4f}s vs {seconds_o2:.4f}s"
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
