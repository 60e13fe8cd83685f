"""Payload codec gates: bytes-on-wire, cold and resident.

Run explicitly (bench files are not collected by the default suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_payload_codec.py -q -s

The seed's ``processes`` backend shipped every worker one
self-contained ``pickle.dumps(dict)`` — module, full shared storage,
frame — per dispatch.  Wire format v1 (PR 4) replaced that with one
shared prelude per region plus per-worker memo deltas, and shipped the
module's bytes at most once per pool epoch.  Wire format v2 (this
codec) keeps the decoded shared state *resident* in the pool workers
and ships dirty-slot deltas between dispatches.

The acceptance gate, on LU and CG at ``-O0`` with 4 workers (the
roadmap's serialization-bound cases: many small dispatches): warm
regions (pool workers hold the stream resident) ship **at most a
third** of what the same payloads would have cost with the full state
attached — the run's own ``payload_bytes + prelude_bytes_saved``.

The table rows land in ``BENCH_payload_codec.json`` (schema-stamped)
so the absolute payload bytes are tracked — and regression-gated
against ``benchmarks/baselines/`` — across PRs.
"""

import time

import pytest

from repro import Session
from repro.runtime import backends, run_plan
from repro.runtime import payload as payload_codec

KERNELS = ("LU", "CG", "IS", "MG", "EP")
GATED = ("LU", "CG")
WORKERS = 4
REPETITIONS = 3


@pytest.fixture(scope="module", autouse=True)
def fresh_codec_state():
    """Cold codec caches so module broadcasts are measured, not elided."""
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()
    yield
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()


@pytest.fixture(scope="module")
def warm_pool(nas_sessions):
    """One throwaway processes run so pool startup isn't timed."""
    session = nas_sessions["EP"]
    run_plan(session.pspdg, session.plan("PS-PDG"),
             workers=2, backend="processes", compile_regions=False)


def _bytes_run(session):
    """One -O0 processes run's wire totals."""
    result = run_plan(
        session.pspdg, session.plan("PS-PDG"),
        workers=WORKERS, backend="processes",
        compile_regions=False,
    )
    regions = result.parallel_regions
    return {
        "payloads": sum(r["payloads"] for r in regions),
        "payload_bytes": sum(
            r["payload_bytes"] - r["retry_payload_bytes"] for r in regions
        ),
        "dirty_slots": sum(r["dirty_slots"] for r in regions),
    }


def _timed_run(session, repetitions=REPETITIONS):
    best = None
    for _ in range(repetitions):
        started = time.perf_counter()
        run_plan(
            session.pspdg, session.plan("PS-PDG"),
            workers=WORKERS, backend="processes",
            compile_regions=False,
        )
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _warm_run_bytes(kernel):
    """Warm-run wire bytes on the resident path.

    Cold pool and codec caches, one priming run (cold stream + module
    broadcast), then the measured run: every region rides the resident
    path (the session's codec hands the stream over across runs).
    """
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()
    try:
        session = Session.from_kernel(kernel, compile_regions=False)
        session.run("PS-PDG", workers=WORKERS, backend="processes")
        result = session.run("PS-PDG", workers=WORKERS, backend="processes")
        regions = result.parallel_regions
        total = sum(r["payload_bytes"] for r in regions)
        retried = sum(r["retry_payload_bytes"] for r in regions)
        return {
            # The gated metric excludes miss-retry round-trips: how
            # often pool scheduling let a worker fall behind is machine
            # timing, not a property of the wire format.
            "payload_bytes": total - retried,
            "retried_payload_bytes": retried,
            "payloads": sum(r["payloads"] for r in regions),
            "prelude_hits": sum(r["prelude_hits"] for r in regions),
            "prelude_misses": sum(r["prelude_misses"] for r in regions),
            "prelude_bytes_saved": sum(
                r["prelude_bytes_saved"] for r in regions
            ),
        }
    finally:
        backends._reset_chunk_pool()
        payload_codec.reset_codec_caches()


@pytest.fixture(scope="module")
def codec_rows(nas_sessions, warm_pool):
    rows = []
    for kernel in KERNELS:
        session = nas_sessions[kernel]
        row = {
            "kernel": kernel,
            "backend": "processes",
            "opt": "-O0",
            "workers": WORKERS,
            "mode": "cold-codec",
        }
        row.update(_bytes_run(session))
        row["seconds"] = _timed_run(session)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def warm_rows():
    rows = []
    for kernel in GATED:
        row = {
            "kernel": kernel,
            "backend": "processes",
            "opt": "-O0",
            "workers": WORKERS,
            "mode": "warm-resident",
        }
        row.update(_warm_run_bytes(kernel))
        rows.append(row)
    return rows


def test_payload_codec_table(codec_rows, warm_rows, bench_json):
    path = bench_json("payload_codec", codec_rows + warm_rows)
    print(f"\nwrote {path}")
    header = (
        f"{'kernel':7} {'payloads':>8} {'bytes':>10} "
        f"{'dirty':>6} {'seconds':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in codec_rows:
        print(
            f"{row['kernel']:7} {row['payloads']:>8} "
            f"{row['payload_bytes']:>10} {row['dirty_slots']:>6} "
            f"{row['seconds']:>9.4f}"
        )
    header = (
        f"{'kernel':7} {'mode':14} {'bytes':>10} {'payloads':>8} "
        f"{'phit':>5} {'pmiss':>5} {'saved':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in warm_rows:
        print(
            f"{row['kernel']:7} {row['mode']:14} "
            f"{row['payload_bytes']:>10} {row['payloads']:>8} "
            f"{row['prelude_hits']:>5} {row['prelude_misses']:>5} "
            f"{row['prelude_bytes_saved']:>10}"
        )


def test_warm_regions_ship_at_most_a_third_of_full_state(warm_rows):
    """The resident-prelude acceptance gate: on warm LU/CG runs the
    dirty-delta wire must be <= 1/3 of what the same payloads cost with
    the full state attached (shipped + the bytes the hits saved)."""
    by_kernel = {row["kernel"]: row for row in warm_rows}
    for kernel in GATED:
        resident = by_kernel[kernel]["payload_bytes"]
        full = resident + by_kernel[kernel]["prelude_bytes_saved"]
        assert resident * 3 <= full, (
            f"{kernel}: resident path ships {resident} bytes on a warm "
            f"run vs {full} full-state bytes — less than a 3x reduction"
        )


def test_steady_state_regions_ship_no_module_bytes(nas_sessions):
    """After the broadcast, a whole run's wire carries only deltas:
    re-running CG must ship strictly fewer bytes than its first
    (broadcasting) run, by at least the module's size."""
    session = nas_sessions["CG"]
    codec = payload_codec.module_codec(session.module)

    def run_bytes():
        result = run_plan(
            session.pspdg, session.plan("PS-PDG"),
            workers=WORKERS, backend="processes",
            compile_regions=False,
        )
        return sum(r["payload_bytes"] for r in result.parallel_regions)

    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()
    first = run_bytes()
    second = run_bytes()
    assert first >= second + len(codec.module_bytes)
