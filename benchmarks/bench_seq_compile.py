"""Sequential-stretch compilation gate: LU/BT at ``-O2`` on threads.

Run explicitly (bench files are not collected by the default suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_seq_compile.py -q -s

The sequence compiler (``repro.codegen.seq``) lowers everything *around*
the parallel regions — function bodies, inter-region block runs, and
the loops the ``-O2`` small-region pass serialized — to one
exec-compiled body per function: its loops as Python loops, each
planned region one dispatch statement.  LU and BT at ``-O2`` are the
sequential-heavy cases: the wavefront/solver loops leave the parallel
path entirely, so most of the run's steps retire in the stretches the
sequence compiler owns.

Acceptance gates:

* whole-program coverage on the gated kernel is deterministic — every
  region chunk compiles (zero interpreter fallbacks) *and* the
  function-body stretch takes the compiled path, and
* the compiled run is **at least 1.25x** faster than the interpreted
  run (wall-clock, best-of-N).  Measured against the decoded-closure
  interpreter with sequences lowered as loops: LU 1.61-1.83x (40.8-43.2
  vs 23.2-26.8 ms over three runs), BT 6.8-7.3x; the block-dispatch
  machine before it read 1.64-1.76x / 3.8-7.4x on the same box, the
  same day.  The floor was 1.5x
  (LU 2.8x) while the interpreter re-interpreted the IR object graph per
  step; the denominator is now ~2.5x faster and what is left of LU's
  compiled run is dispatching 300 chunks, which both modes pay.  What
  the ratio stood for — nothing falls back — is the deterministic gate
  above and ``codegen.fallbacks`` / ``codegen.seq_interpreted`` in
  ``benchmarks/e2e``.

Rows land in ``BENCH_seq_compile.json`` with ``mode`` set to
``compiled``/``interpreted`` per row.  ``steps`` must match between the
modes (checked here — a bench that quietly diverged would be measuring
two different programs).  The ``feedback`` rows carry the measured
per-region ``compiled_speedup`` that ``diagnostics.payload_feedback()``
derives from runs like these and ``optimize_plan`` consumes in place of
the machine model's prior.
"""

import time

import pytest

from repro.opt import OptLevel, optimize_plan
from repro.pipeline.diagnostics import Diagnostics
from repro.runtime import run_plan

KERNELS = ("LU", "BT")
GATED = "LU"
BACKEND = "threads"
WORKERS = 4
REPETITIONS = 3
GATE = 1.25  # measured 1.61-1.83x; see the module docstring


@pytest.fixture(scope="module")
def o2_plans(nas_sessions):
    """kernel -> the ``-O2``-optimized PS-PDG plan."""
    plans = {}
    for kernel in KERNELS:
        session = nas_sessions[kernel]
        plans[kernel] = optimize_plan(
            session.pspdg, session.plan("PS-PDG"), OptLevel.O2,
        ).plan
    return plans


def _measure(session, plan, compile_regions, repetitions=REPETITIONS):
    best = None
    last = None
    for _ in range(repetitions):
        started = time.perf_counter()
        result = run_plan(
            session.pspdg, plan,
            workers=WORKERS, backend=BACKEND,
            compile_regions=compile_regions,
        )
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        last = result
    return {
        "seconds": best,
        "steps": last.steps,
        "seq_compiled": last.sequence_stats.get("compiled", 0),
        "seq_interpreted": last.sequence_stats.get("interpreted", 0),
        "compiled_chunks": sum(
            r["compiled_chunks"] for r in last.parallel_regions
        ),
        "interpreted_chunks": sum(
            r["interpreted_chunks"] for r in last.parallel_regions
        ),
    }, last


@pytest.fixture(scope="module")
def seq_rows(nas_sessions, o2_plans):
    rows = []
    for kernel in KERNELS:
        session = nas_sessions[kernel]
        diagnostics = Diagnostics()
        for compiled in (False, True):
            row = {
                "kernel": kernel,
                "backend": BACKEND,
                "opt": "-O2",
                "workers": WORKERS,
                "mode": "compiled" if compiled else "interpreted",
            }
            measured, result = _measure(
                session, o2_plans[kernel], compiled,
            )
            row.update(measured)
            rows.append(row)
            for region in result.parallel_regions:
                diagnostics.record_parallel(region)
        # Close the model loop: the same feedback channel the planner
        # consumes, measured from the two runs above.
        _bytes, speedup, _recovery = diagnostics.payload_feedback()
        for label, ratio in sorted(speedup.items()):
            rows.append({
                "kernel": kernel,
                "backend": BACKEND,
                "opt": "-O2",
                "workers": WORKERS,
                "mode": f"feedback:{label}",
                "compiled_speedup": ratio,
            })
    return rows


def test_seq_compile_table(seq_rows, bench_json):
    path = bench_json("seq_compile", seq_rows)
    print(f"\nwrote {path}")
    header = (
        f"{'kernel':7} {'mode':22} {'sc':>3} {'si':>3} {'cc':>5} "
        f"{'ic':>5} {'steps':>9} {'seconds':>9} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    by_key = {(row["kernel"], row["mode"]): row for row in seq_rows}
    for row in seq_rows:
        if "seconds" not in row:
            print(
                f"{row['kernel']:7} {row['mode']:22} "
                f"{'':3} {'':3} {'':5} {'':5} {'':9} {'':9} "
                f"{row['compiled_speedup']:>7.2f}x"
            )
            continue
        speedup = ""
        if row["mode"] == "compiled":
            base = by_key[(row["kernel"], "interpreted")]
            speedup = f"{base['seconds'] / row['seconds']:>7.2f}x"
        print(
            f"{row['kernel']:7} {row['mode']:22} "
            f"{row['seq_compiled']:>3} {row['seq_interpreted']:>3} "
            f"{row['compiled_chunks']:>5} {row['interpreted_chunks']:>5} "
            f"{row['steps']:>9} {row['seconds']:>9.4f} {speedup:>8}"
        )


def test_whole_program_coverage_is_deterministic(seq_rows):
    """Every kernel's compiled run covers stretches *and* chunks.

    A silent fallback anywhere — one refused chunk, one interpreted
    function body — erodes the speedup without failing a conformance
    test; this pins coverage independently of timing.
    """
    for row in seq_rows:
        if row["mode"] != "compiled":
            continue
        label = f"{row['kernel']} {BACKEND}"
        assert row["seq_compiled"] > 0, (
            f"{label}: no sequential stretch compiled"
        )
        assert row["seq_interpreted"] == 0, (
            f"{label}: {row['seq_interpreted']} stretch(es) fell back"
        )
        assert row["interpreted_chunks"] == 0, (
            f"{label}: {row['interpreted_chunks']} chunk(s) fell back"
        )


def test_modes_retire_identical_steps(seq_rows):
    """Compiled and interpreted runs must be the same computation."""
    by_key = {(row["kernel"], row["mode"]): row for row in seq_rows}
    for kernel in KERNELS:
        assert (
            by_key[(kernel, "compiled")]["steps"]
            == by_key[(kernel, "interpreted")]["steps"]
        ), f"{kernel}: step counts diverged between modes"


def test_gated_kernel_compiled_is_faster_by_the_gate(seq_rows):
    """The acceptance gate: LU -O2 on threads, whole-run wall-clock."""
    by_mode = {
        row["mode"]: row
        for row in seq_rows
        if row["kernel"] == GATED and "seconds" in row
    }
    interpreted = by_mode["interpreted"]["seconds"]
    compiled = by_mode["compiled"]["seconds"]
    print(
        f"\n{GATED} -O2 {BACKEND} W={WORKERS}: interpreted "
        f"{interpreted * 1000:.1f}ms, compiled {compiled * 1000:.1f}ms "
        f"({interpreted / compiled:.2f}x)"
    )
    assert compiled * GATE <= interpreted, (
        f"compiled {GATED} -O2 only {interpreted / compiled:.2f}x faster "
        f"({compiled:.4f}s vs {interpreted:.4f}s) — gate is {GATE}x"
    )
