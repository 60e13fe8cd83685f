"""Calibrated plans: re-priced between runs.

The contract under test: a ``calibrate=True`` session prices its second
run from the first run's measurements, that re-priced plan computes what
the sequential program computes, and a calibrating run never rewrites
the recipes the session has cached.  The miscalibrated sessions time
their regions by :func:`steady_clock`, so how busy the box is changes
no re-pricing here.
"""

import pytest

from repro import Session
from repro.opt.serialize import GIL_DISPATCH_FACTOR
from repro.planner.machine import DEFAULT_MACHINE, MachineModel
from repro.runtime import backends, knobs
from repro.workloads import kernel_names
from support.conformance import MISCALIBRATED, outputs_close


#: The clock an observing run is timed by here: an idle box's, the same
#: on every run.  A worker takes ``WORKER_SECONDS`` plus ``STEP_SECONDS``
#: a step, ``COMPILED_SPEEDUP`` times less when its chunks ran compiled;
#: a dispatch adds ``DISPATCH_SECONDS`` to its slowest worker, one that
#: ships payloads ``PAYLOAD_DISPATCH_SECONDS``.  Fitted to the first
#: observed ``processes`` run of each kernel on an idle 2-vCPU box
#: (CPython 3.11): a worker of LU, IS and CG took 199, 163 and 365 us
#: for 132, 240 and 612 steps interpreted, LU 16 us compiled, and a
#: dispatch 1.5-3.1 ms over its slowest worker.  Timed by the wall
#: clock, a loaded box measured dearer dispatches, and LU's second run
#: was re-priced to no region at all.
WORKER_SECONDS = 1e-4
STEP_SECONDS = 5e-7
COMPILED_SPEEDUP = 5
DISPATCH_SECONDS = 5e-5
PAYLOAD_DISPATCH_SECONDS = 2e-3


#: A prior dispatch cost so low that, on a GIL build, a threads plan
#: keeps the regions an overlapping backend's does: the observing run
#: dispatches, and the cost it measures re-prices the second run.
CHEAP_DISPATCH = MachineModel(
    threads_region_cost=(
        DEFAULT_MACHINE.serial_region_cost // GIL_DISPATCH_FACTOR
    ),
)


def steady_clock(session):
    """Time ``session``'s observed regions by the clock above: what its
    calibration measures, and so the plan it re-prices, is a function
    of the steps and payloads alone.  Untimed workers (the simulated
    oracle's) stay untimed."""
    store = session.calibration
    observe = store.observe_run

    def observe_run(regions, program_key=None):
        for region in regions:
            scale = COMPILED_SPEEDUP if region.compiled_chunks else 1
            for worker in region.per_worker:
                if worker["seconds"] > 0:
                    worker["seconds"] = (
                        WORKER_SECONDS + worker["steps"] * STEP_SECONDS
                    ) / scale
            region.seconds = region.compute_seconds + (
                PAYLOAD_DISPATCH_SECONDS if region.payloads
                else DISPATCH_SECONDS
            )
        return observe(regions, program_key)

    store.observe_run = observe_run
    return session


def miscalibrated_session(kernel="LU", **overrides):
    overrides.setdefault("opt_level", 2)
    overrides.setdefault("backend", "processes")
    overrides.setdefault("workers", 4)
    overrides.setdefault("calibrate", True)
    return steady_clock(
        Session.from_kernel(kernel, machine=MISCALIBRATED, **overrides)
    )


def observed_then_repriced(session):
    """The observing run and the run priced from its measurements."""
    return session.run("PS-PDG"), session.run("PS-PDG")


def dispatched(result):
    return [(r.header, r.backend) for r in result.parallel_regions]


def cost_decisions(regions):
    return [(r.label, r.backend_override, r.tile) for r in regions]


class TestCalibratedConformance:
    """Re-pricing changes cost decisions only, never results."""

    @pytest.mark.parametrize("kernel", kernel_names())
    @pytest.mark.parametrize("backend", ("simulated", "threads"))
    @pytest.mark.parametrize("opt", (0, 2))
    def test_kernels_conform(self, kernel, backend, opt):
        session = Session.from_kernel(
            kernel, opt_level=opt, backend=backend, workers=4,
            calibrate=True, machine=CHEAP_DISPATCH,
        )
        expected = session.execution.output
        _first, second = observed_then_repriced(session)
        assert outputs_close(second.output, expected)
        # The oracle's workers are untimed: only threads measures.
        measured = session.calibration.measured_coefficients()
        assert bool(measured) == (backend == "threads")

    @pytest.mark.parametrize("kernel", ("IS", "LU", "CG"))
    def test_processes_kernels_conform(self, kernel):
        session = miscalibrated_session(kernel, compile_regions=False)
        expected = session.execution.output
        first, second = observed_then_repriced(session)
        assert outputs_close(second.output, expected)
        # The measured model re-priced the storm plan.
        assert dispatched(second) != dispatched(first)

    def test_compiled_regions_conform_when_calibrated(self):
        session = miscalibrated_session(compile_regions=True)
        expected = session.execution.output
        first, second = observed_then_repriced(session)
        assert outputs_close(second.output, expected)
        assert dispatched(second) != dispatched(first)


class TestObservingRun:
    """What one observed run feeds back, and what it leaves alone."""

    @pytest.fixture(scope="class")
    def calibrated_runs(self):
        session = miscalibrated_session()
        planned = session.region_recipes["PS-PDG"]
        first = session.run("PS-PDG")
        after_first = session.calibration.measured_coefficients()
        second = session.run("PS-PDG")
        session.measured_after_first = after_first
        return session, planned, first, second

    def test_the_run_measures_positive_coefficients(self, calibrated_runs):
        session, _planned, _first, _second = calibrated_runs
        measured = session.calibration.measured_coefficients()
        assert measured  # at least one coefficient observed
        assert all(
            value > 0 and samples >= 1
            for value, samples in measured.values()
        )

    def test_both_runs_are_observed(self, calibrated_runs):
        session, _planned, _first, _second = calibrated_runs
        assert session.calibration.runs == 2
        before = session.measured_after_first
        after = session.calibration.measured_coefficients()
        # Samples accumulate: the second run forgets nothing.
        assert all(
            after[name][1] >= samples
            for name, (_value, samples) in before.items()
        )

    def test_measured_coefficients_replace_the_static_ones(
            self, calibrated_runs):
        session, _planned, _first, _second = calibrated_runs
        machine = session.calibrated["machine"]
        assert machine != MISCALIBRATED
        for name, (value, _samples) in \
                session.calibration.measured_coefficients().items():
            static = getattr(MISCALIBRATED, name)
            if isinstance(static, int):
                assert getattr(machine, name) == max(1, int(round(value)))
            else:
                assert getattr(machine, name) == pytest.approx(value)

    def test_wire_feedback_covers_every_dispatched_label(
            self, calibrated_runs):
        session, _planned, first, _second = calibrated_runs
        payload_bytes, _speedup = session.calibration.region_feedback(
            session.program_key()
        )
        assert {r.header for r in first.parallel_regions if r.payloads} \
            <= set(payload_bytes)
        assert all(value > 0 for value in payload_bytes.values())

    def test_repricing_never_adds_a_region(self, calibrated_runs):
        # MISCALIBRATED dispatches every legal region: measured costs
        # can serialize or reroute one, never add another.
        session, planned, _first, second = calibrated_runs
        repriced = session.region_recipes["PS-PDG"]
        assert {r.label for r in repriced} <= {r.label for r in planned}
        assert {r.header for r in second.parallel_regions} \
            <= {r.label for r in planned}

    def test_the_observation_reprices_without_restructuring(
            self, calibrated_runs):
        session = calibrated_runs[0]
        assert session.diagnostics.runs("optimize") >= 2
        assert session.diagnostics.runs("restructure") == 1

    def test_results_match_an_uncalibrated_session(self, calibrated_runs):
        _session, _planned, first, second = calibrated_runs
        plain = miscalibrated_session(calibrate=False).run("PS-PDG")
        assert first.formatted_output() == plain.formatted_output()
        assert second.formatted_output() == plain.formatted_output()


def test_calibration_off_never_observes():
    session = miscalibrated_session(calibrate=False)
    planned = session.region_recipes["PS-PDG"]
    session.run("PS-PDG")
    assert not session.calibration.measured_coefficients()
    assert session.region_recipes["PS-PDG"] is planned


def test_untimed_simulated_run_leaves_the_plan_alone():
    # The oracle's workers are untimed: nothing to measure, so the
    # second run dispatches exactly what the first did.
    session = Session.from_kernel(
        "IS", opt_level=2, workers=4, calibrate=True,
    )
    planned = session.region_recipes["PS-PDG"]
    first, second = observed_then_repriced(session)
    assert not session.calibration.measured_coefficients()
    assert session.region_recipes["PS-PDG"] is planned
    assert dispatched(second) == dispatched(first)


@pytest.mark.parametrize("kernel", ("IS", "LU", "CG"))
def test_a_run_never_rewrites_the_cached_recipes(kernel):
    session = miscalibrated_session(kernel)
    cached = session.region_recipes["PS-PDG"]
    before = cost_decisions(cached)
    session.run("PS-PDG")
    assert session.calibration.measured_coefficients()
    assert cost_decisions(cached) == before
    # The re-priced cache is exactly what the optimizer says now.
    assert cost_decisions(session.region_recipes["PS-PDG"]) == \
        cost_decisions(session.optimized_plan().dispatched())


def test_a_faulted_calibrated_run_conforms(monkeypatch):
    """REPRO_FAULTS + calibration: the faulted run and the run priced
    after it both compute the sequential result."""
    knobs.REPRO_FAULTS.value = "crash:region=1:worker=0:times=1"
    monkeypatch.setattr(backends, "_region_allowance", lambda _s: 20.0)
    try:
        # Priced for the interpreter: region=1 must still be a
        # processes dispatch for the scenario to fire.
        session = miscalibrated_session(compile_regions=False)
        expected = session.execution.output
        faulted = session.run("PS-PDG")
    finally:
        knobs.refresh()
    assert outputs_close(faulted.output, expected)
    assert any(r.recovery_inflated for r in faulted.parallel_regions)
    assert outputs_close(session.run("PS-PDG").output, expected)

