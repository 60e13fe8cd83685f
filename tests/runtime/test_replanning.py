"""Adaptive mid-run replanning: divergence detection, adoption, safety.

The contract under test: replanning changes *cost decisions only* —
backend overrides and tiles of regions whose measured timings diverge
from the plan's predictions — never results, never the set of takeover
trigger headers, and never anything at all for recovery-inflated
dispatches (their timings measure the fault injector, not the machine).
"""

import dataclasses

import pytest

from repro import Session
from repro.planner.calibration import CalibrationStore
from repro.planner.machine import MachineModel
from repro.runtime import knobs
from repro.workloads import kernel_names
from support.conformance import outputs_close

#: Thresholds absurdly low: every region looks worth dispatching, so a
#: processes run pays per-dispatch wire costs the model claimed were
#: free — exactly the mis-calibration adaptive replanning must recover.
MISCALIBRATED = MachineModel(
    serial_region_cost=1,
    threads_region_cost=2,
    payload_cost_per_byte=1e-9,
)


def miscalibrated_session(**overrides):
    overrides.setdefault("opt_level", 2)
    overrides.setdefault("backend", "processes")
    overrides.setdefault("workers", 4)
    return Session.from_kernel("LU", machine=MISCALIBRATED, **overrides)


class TestReplanTriggers:
    @pytest.fixture(scope="class")
    def adaptive_run(self):
        session = miscalibrated_session()
        result = session.run("PS-PDG", adaptive=True)
        return session, result

    def test_divergence_fires_replan_events(self, adaptive_run):
        _session, result = adaptive_run
        assert result.replan_events
        event = result.replan_events[0]
        assert event["reasons"]
        assert event["changes"]
        assert all(
            reason["kind"] in (
                "dispatch-overhead", "imbalance", "payload-bytes"
            )
            for reason in event["reasons"]
        )

    def test_replans_reroute_but_never_drop_regions(self, adaptive_run):
        session, result = adaptive_run
        plain = miscalibrated_session().run("PS-PDG")
        # Same dispatch count: a mid-run serialization reroutes a
        # region's backend, it never removes the trigger header.
        assert len(result.parallel_regions) == len(plain.parallel_regions)
        assert [r["header"] for r in result.parallel_regions] == \
            [r["header"] for r in plain.parallel_regions]

    def test_results_identical_to_non_adaptive(self, adaptive_run):
        _session, result = adaptive_run
        plain = miscalibrated_session().run("PS-PDG")
        assert result.formatted_output() == plain.formatted_output()

    def test_rpl_column_and_stats(self, adaptive_run):
        session, result = adaptive_run
        assert sum(r.get("replans", 0) for r in result.parallel_regions) \
            == len(result.replan_events)
        report = session.diagnostics.parallel_report()
        assert "rpl" in report.splitlines()[0]

    def test_replans_surface_in_payload_feedback(self, adaptive_run):
        session, _result = adaptive_run
        _bytes, _speedup, recovery = session.diagnostics.payload_feedback()
        assert sum(
            entry.get("replans", 0) for entry in recovery.values()
        ) >= 1

    def test_events_record_calibrated_coefficients(self, adaptive_run):
        _session, result = adaptive_run
        machine = result.replan_events[0]["machine"]
        assert machine  # at least one measured coefficient
        assert all(value > 0 for value in machine.values())

    def test_mid_run_observations_feed_session_store(self, adaptive_run):
        session, _result = adaptive_run
        assert session.calibration.observed


class TestNoSpuriousReplans:
    def test_well_calibrated_simulated_run_stays_quiet(self):
        # The oracle's workers are untimed: no overhead signal, and a
        # balanced kernel gives no imbalance signal either.
        session = Session.from_kernel("IS", opt_level=2, workers=4)
        result = session.run("PS-PDG", adaptive=True)
        assert result.replan_events == []
        assert session.diagnostics.payload_feedback()[2] == {}

    def test_adaptive_off_never_replans(self):
        session = miscalibrated_session()
        result = session.run("PS-PDG")
        assert result.replan_events == []


class TestAdaptiveConformance:
    """Replanning changes cost decisions only, never results."""

    @pytest.mark.parametrize("kernel", kernel_names())
    @pytest.mark.parametrize("backend", ("simulated", "threads"))
    @pytest.mark.parametrize("opt", (0, 2))
    def test_kernels_conform(self, kernel, backend, opt):
        session = Session.from_kernel(
            kernel, opt_level=opt, backend=backend, workers=4,
        )
        expected = session.execution.output
        result = session.run("PS-PDG", adaptive=True)
        assert outputs_close(result.output, expected)

    @pytest.mark.parametrize("kernel", ("IS", "LU", "CG"))
    def test_processes_kernels_conform(self, kernel):
        session = Session.from_kernel(
            kernel, opt_level=2, backend="processes", workers=4,
            machine=MISCALIBRATED,
        )
        expected = session.execution.output
        result = session.run("PS-PDG", adaptive=True)
        assert outputs_close(result.output, expected)

    def test_compiled_regions_conform_with_adaptive(self):
        session = miscalibrated_session(compile_regions=True)
        expected = session.execution.output
        result = session.run("PS-PDG", adaptive=True)
        assert outputs_close(result.output, expected)


class TestChaosInteraction:
    """REPRO_FAULTS + adaptive: the deferred-apply invariant holds and
    recovery-inflated timings never reach the calibration store."""

    def test_faulted_run_still_conforms(self):
        knobs.REPRO_FAULTS.value = "crash:region=1:worker=0:times=1"
        knobs.REPRO_REGION_TIMEOUT.value = 20.0
        try:
            # Priced for the interpreter: region=1 must still be a
            # processes dispatch for the scenario to fire.
            session = miscalibrated_session(compile_regions=False)
            expected = session.execution.output
            result = session.run("PS-PDG", adaptive=True)
        finally:
            knobs.refresh()
        assert outputs_close(result.output, expected)
        faulted = [
            r for r in result.parallel_regions if r.recovery_inflated
        ]
        assert faulted  # the scenario actually fired
        # A recovery-inflated dispatch never triggers a replan itself.
        assert all(r.get("replans", 0) == 0 for r in faulted)

    def test_faulted_regions_never_calibrate(self):
        store = CalibrationStore()
        session = miscalibrated_session()
        result = session.run("PS-PDG")
        faulted = [
            dataclasses.replace(r, retries=1)
            for r in result.parallel_regions
        ]
        assert store.observe_run(faulted) is False
        assert not store.observed
