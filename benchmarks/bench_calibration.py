"""Calibration gate: recovery from a mis-calibrated model on LU.

Run explicitly (bench files are not collected by the default suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_calibration.py -q -s

The planner is handed a machine model whose coefficients are ~100x off
(``payload_cost_per_byte=1e-9``, dispatch bars of 1/2 steps: "every
region is worth process-pool dispatch, bytes are free"), so the -O2
plan for LU pays dozens of pointless pool round-trips.  Two gates:

* **Recovery**: a ``calibrate=True`` session's runs after its one
  observing run, re-priced between runs, must finish at least **1.3x**
  faster than a plain session's runs of the same mis-calibrated plan
  (paired median over interleaved reps, same machine, warm pool).
* **Convergence**: after 3 calibrated runs, the profile's coefficient
  EWMAs must land within **2x** of an independently measured fresh
  reference, and a *warm session* loading that profile must plan from
  the measured (not the mis-calibrated) coefficients.

Both gates are paired in-run ratios: each side of a comparison is
measured in the same process on the same machine, so no committed
baseline is needed.
"""

import statistics
import time

import pytest

from repro import Session
from repro.planner.calibration import CalibrationStore
from repro.planner.machine import MachineModel
from repro.runtime import backends, knobs

KERNEL = "LU"
BACKEND = "processes"
WORKERS = 4
OPT = 2
REPETITIONS = 7
RECOVERY_GATE = 1.3
CONVERGENCE_FACTOR = 2.0
CALIBRATION_RUNS = 3

#: ~100x-off coefficients: wire bytes claimed free, dispatch bars of
#: 1/2 steps so the small-region pass never serializes anything.
MISCALIBRATED = MachineModel(
    serial_region_cost=1,
    threads_region_cost=2,
    payload_cost_per_byte=1e-9,
)


def _session(**overrides):
    return Session.from_kernel(
        KERNEL, opt_level=OPT, backend=BACKEND, workers=WORKERS,
        machine=MISCALIBRATED, compile_regions=False, **overrides,
    )


@pytest.fixture(scope="module")
def measured():
    """Interleaved plain vs calibrating timings on a warm pool."""
    knobs.refresh()
    backends._reset_chunk_pool()

    modes = (
        ("plain", _session()),
        ("calibrated", _session(calibrate=True)),
    )
    # Warm pool + caches.  The first calibrated run is the observing
    # one; later reps run plans priced from it.
    first = {mode: session.run("PS-PDG") for mode, session in modes}
    times = {mode: [] for mode, _ in modes}
    last = dict(first)
    for _ in range(REPETITIONS):
        for mode, session in modes:
            started = time.perf_counter()
            last[mode] = session.run("PS-PDG")
            times[mode].append(time.perf_counter() - started)
    recovery = statistics.median(
        off / on for off, on in zip(times["plain"], times["calibrated"])
    )
    best = {mode: min(series) for mode, series in times.items()}
    return best, recovery, first, last


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory, measured):
    """3 calibrated runs into a profile, then a warm session over it."""
    profile = str(tmp_path_factory.mktemp("profiles") / "calibration.json")
    store = CalibrationStore(profile)
    for _ in range(CALIBRATION_RUNS):
        # Cold pool each run, and every run executes the *same*
        # mis-calibrated storm plan: the gate measures whether the
        # estimator converges, so the operating point (75 dispatches,
        # full payloads) must stay fixed across runs.  The re-planning
        # behavior of calibrate-enabled sessions is covered by the
        # warm-session test below.
        backends._reset_chunk_pool()
        run_session = _session()
        store.observe_run(
            run_session.run("PS-PDG").parallel_regions,
            program_key=run_session.program_key(),
        )
    store.save()

    # Independent fresh reference: one more storm run's stats distilled
    # into a brand-new store (no EWMA history), same conditions.
    backends._reset_chunk_pool()
    reference = CalibrationStore()
    reference.observe_run(_session().run("PS-PDG").parallel_regions)

    backends._reset_chunk_pool()
    warm = _session(calibrate=True, profile_path=profile)
    warm_result = warm.run("PS-PDG")
    return store, reference, warm, warm_result


def test_calibration_recovers_from_miscalibration(measured):
    """Re-pricing between runs claws back >=1.3x of the mispricing's
    cost once one run has been observed."""
    best, recovery, _first, _last = measured
    print(
        f"\n{KERNEL} -O{OPT} {BACKEND} W={WORKERS}: plain best "
        f"{best['plain'] * 1000:.1f}ms, calibrated best "
        f"{best['calibrated'] * 1000:.1f}ms, paired median recovery "
        f"{recovery:.2f}x"
    )
    assert recovery >= RECOVERY_GATE, (
        f"calibrated runs only {recovery:.2f}x faster than plain ones "
        f"under a 100x-miscalibrated model — gate is {RECOVERY_GATE}x"
    )


def test_calibrated_output_identical(measured):
    _best, _recovery, first, last = measured
    assert first["calibrated"].formatted_output() == \
        first["plain"].formatted_output()
    assert last["calibrated"].formatted_output() == \
        last["plain"].formatted_output()


def test_calibration_converges_within_factor(calibrated):
    """After 3 runs the EWMAs agree with a fresh measurement within 2x."""
    store, reference, _warm, _warm_result = calibrated
    converged = dict(store.measured_coefficients())
    fresh = dict(reference.measured_coefficients())
    shared = set(converged) & set(fresh)
    assert shared, "no coefficient measured by both stores"
    for name in sorted(shared):
        value, _ = converged[name]
        target, _ = fresh[name]
        ratio = value / target
        print(f"{name}: converged {value:.4g} vs fresh {target:.4g} "
              f"({ratio:.2f}x)")
        assert 1.0 / CONVERGENCE_FACTOR <= ratio <= CONVERGENCE_FACTOR, (
            f"{name} drifted {ratio:.2f}x from the fresh measurement "
            f"after {CALIBRATION_RUNS} runs — gate is "
            f"{CONVERGENCE_FACTOR}x"
        )


def test_warm_session_plans_from_measured_coefficients(measured, calibrated):
    """A profile-loading session plans from measured numbers: the
    calibrate stage hands the optimizer the profile's machine and the
    per-region wire feedback, not the mis-calibrated constructor input."""
    _best, _recovery, first, _last = measured
    _calibrated, _reference, warm, warm_result = calibrated
    machine = warm.calibrated["machine"]
    assert machine != MISCALIBRATED
    assert machine == warm.calibration.calibrated_machine(MISCALIBRATED)
    # The wire is no longer priced as free, and the dispatch bars
    # reflect pool round-trips actually paid for.
    assert machine.payload_cost_per_byte > \
        MISCALIBRATED.payload_cost_per_byte * 100
    assert machine.threads_region_cost > MISCALIBRATED.threads_region_cost
    assert machine.serial_region_cost > MISCALIBRATED.serial_region_cost
    # Per-region bytes-on-wire feedback reached the planner too.
    assert warm.calibrated["payload_bytes"]
    # And planning from measured numbers never perturbs the results.
    assert warm_result.formatted_output() == \
        first["plain"].formatted_output()
