"""Fault-tolerant region execution: injection, retry, and the ladder.

Covers the ``REPRO_FAULTS`` spec grammar, the supervised retry path of
the processes backend (crash / hang / corrupt_wire / drop_result all
recover to byte-identical output), the graceful-degradation ladder with
its Session-scoped quarantine, and a chaos conformance sweep over every
NAS kernel: a faulted run either matches the sequential reference or
surfaces a clean :class:`EmulationError` — never a hang, never silent
corruption, never an unclassified infrastructure exception.
"""

import pytest

from repro.runtime import backends, faults, knobs
from repro.util.errors import EmulationError, PlanError
from repro.workloads import kernel_names
from repro.workloads.nas import build_session
from support.conformance import (
    CHAOS_SCENARIOS,
    chaos_outcome,
    describe_mismatch,
    outputs_close,
)


@pytest.fixture(autouse=True)
def fresh_pool():
    backends._reset_chunk_pool()
    yield
    backends._reset_chunk_pool()


@pytest.fixture
def fast_retries():
    """Shrink the retry backoff so chaos tests don't sleep much."""
    knobs.REPRO_RETRY_BACKOFF.value = 0.01
    yield
    knobs.refresh()


def inject(spec):
    """Activate a fault spec for the rest of the test."""
    knobs.REPRO_FAULTS.value = spec


# -- spec grammar --------------------------------------------------------------


class TestFaultSpec:
    def test_parses_multi_scenario_spec(self):
        plan = faults.FaultPlan.from_spec(
            "crash:region=2:worker=1;hang:p=0.05:seed=7:s=3,"
            "corrupt_wire:times=4;drop_result"
        )
        kinds = [s.kind for s in plan.scenarios]
        assert kinds == ["crash", "hang", "corrupt_wire", "drop_result"]
        crash, hang, corrupt, drop = plan.scenarios
        assert (crash.region, crash.worker) == (2, 1)
        assert (hang.p, hang.seed, hang.seconds) == (0.05, 7, 3.0)
        assert hang.directive() == ("hang", 3.0)
        assert corrupt.times == 4
        assert drop.times == 1 and drop.directive() == ("drop_result",)

    @pytest.mark.parametrize("spec", [
        "fry:region=0",            # unknown kind
        "crash:cpu=3",             # unknown selector
        "crash:region",            # malformed field (no '=')
        "crash:region=two",        # bad value
        "hang:p=maybe",            # bad value
    ])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(PlanError):
            faults.FaultPlan.from_spec(spec)

    def test_budget_consumed_per_draw(self):
        plan = faults.FaultPlan.from_spec("crash:worker=0:times=2")
        assert plan.draw(0, 0) is not None
        assert plan.draw(1, 0) is not None
        assert plan.draw(2, 0) is None  # budget of 2 exhausted
        assert plan.draw(3, 1) is None  # wrong worker never matched

    def test_times_zero_is_unlimited(self):
        plan = faults.FaultPlan.from_spec("drop_result:times=0")
        assert all(plan.draw(region, 0) for region in range(10))

    def test_probability_draws_are_deterministic(self):
        spec = "crash:p=0.4:seed=11:times=0"
        first = faults.FaultPlan.from_spec(spec)
        second = faults.FaultPlan.from_spec(spec)
        cells = [(region, worker)
                 for region in range(8) for worker in range(4)]
        draws = [bool(first.draw(*cell)) for cell in cells]
        assert draws == [bool(second.draw(*cell)) for cell in cells]
        assert any(draws) and not all(draws)  # p=0.4 actually selects

    def test_active_plan_follows_spec_changes(self):
        assert faults.active_plan() is None
        inject("crash:region=0")
        plan = faults.active_plan()
        assert plan is not None and faults.active_plan() is plan
        inject("")
        assert faults.active_plan() is None


class TestQuarantine:
    def test_demotion_is_monotonic(self):
        quarantine = faults.Quarantine()
        key = ("hash", "loop@3")
        assert quarantine.rung_for(key) is None
        quarantine.demote(key, "threads")
        assert quarantine.rung_for(key) == "threads"
        quarantine.demote(key, "serial")
        quarantine.demote(key, "threads")  # never climbs back up
        assert quarantine.rung_for(key) == "serial"
        assert len(quarantine) == 1 and quarantine.entries() == {
            key: "serial"
        }
        quarantine.clear()
        assert quarantine.rung_for(key) is None


# -- supervised recovery on the processes backend ------------------------------


class TestSupervisedRecovery:
    def run_lu(self, session, **kwargs):
        return session.run("PS-PDG", opt="-O2", workers=2,
                           backend="processes", **kwargs)

    def test_crash_recovers_byte_identical(self, fast_retries):
        """The ISSUE's acceptance demo: seeded crash on LU -O2."""
        session = build_session("LU")
        clean = self.run_lu(session)
        assert outputs_close(clean.output, session.execution.output)

        inject("crash:region=0:worker=0")
        faulted = self.run_lu(session)
        assert faulted.output == clean.output  # bitwise, not isclose
        region = faulted.parallel_regions[0]
        assert region["retries"] >= 1
        assert region["faults_injected"] >= 1
        assert region["recovery_ms"] > 0
        assert region["failovers"] == 0  # retry healed it, no demotion
        report = session.diagnostics.parallel_report()
        assert "rtry" in report and "rec-ms" in report

    def test_negative_backoff_still_recovers(self, fast_retries):
        """``REPRO_RETRY_BACKOFF=-1`` clamps to no sleep: the crash must
        still recover, not die in ``time.sleep`` with a ValueError."""
        session = build_session("LU")
        clean = self.run_lu(session)
        knobs.REPRO_RETRY_BACKOFF.value = -1.0
        inject("crash:region=0:worker=0")
        faulted = self.run_lu(session)
        assert faulted.output == clean.output  # bitwise, not isclose
        assert faulted.parallel_regions[0]["retries"] >= 1

    def test_infinite_backoff_and_deadline_still_recover(self, monkeypatch):
        """``REPRO_RETRY_BACKOFF=inf`` and ``REPRO_REGION_TIMEOUT=inf``
        read as their defaults: the crash must still recover, not die in
        ``time.sleep`` / ``future.result`` with an OverflowError."""
        session = build_session("EP")
        clean = session.run("PS-PDG", opt="-O2", workers=2,
                            backend="processes")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "inf")
        monkeypatch.setenv("REPRO_REGION_TIMEOUT", "inf")
        knobs.refresh()
        inject("crash:region=0:worker=0")
        faulted = session.run("PS-PDG", opt="-O2", workers=2,
                              backend="processes")
        assert faulted.output == clean.output
        assert faulted.parallel_regions[0]["retries"] >= 1

    @pytest.mark.parametrize("spec", [
        "corrupt_wire:region=0:worker=1",
        "drop_result:region=0:worker=0",
    ])
    def test_wire_faults_recover(self, fast_retries, spec):
        session = build_session("EP")
        clean = session.run("PS-PDG", opt="-O2", workers=2,
                            backend="processes")
        inject(spec)
        faulted = session.run("PS-PDG", opt="-O2", workers=2,
                              backend="processes")
        assert faulted.output == clean.output
        assert sum(r["retries"] for r in faulted.parallel_regions) >= 1
        assert sum(r["faults_injected"]
                   for r in faulted.parallel_regions) >= 1

    def test_hang_trips_region_deadline_and_recovers(self, fast_retries):
        session = build_session("EP")
        clean = session.run("PS-PDG", opt="-O2", workers=2,
                            backend="processes")
        knobs.REPRO_REGION_TIMEOUT.value = 1.5
        inject("hang:region=0:worker=0:s=30")
        faulted = session.run("PS-PDG", opt="-O2", workers=2,
                              backend="processes")
        assert faulted.output == clean.output
        assert sum(r["retries"] for r in faulted.parallel_regions) >= 1


class TestDegradationLadder:
    def test_exhausted_retries_fail_over_then_quarantine(self,
                                                         fast_retries):
        session = build_session("EP", retry_budget=1)
        expected = session.execution.output
        inject("crash:p=1:seed=1:times=0")  # every dispatch dies
        result = session.run("PS-PDG", opt="-O2", workers=2,
                             backend="processes")
        assert outputs_close(result.output, expected)
        region = result.parallel_regions[0]
        assert region["backend"] == "processes->threads(failover)"
        assert region["failovers"] >= 1
        assert len(session._quarantine()) >= 1

        # Warm re-run on the same Session: the quarantine remembers the
        # rung, so no doomed processes retries are re-paid.
        inject("")
        warm = session.run("PS-PDG", opt="-O2", workers=2,
                           backend="processes")
        assert outputs_close(warm.output, expected)
        region = warm.parallel_regions[0]
        assert region["backend"] == "processes->threads(quarantine)"
        assert region["retries"] == 0 and region["failovers"] == 0

    def test_program_errors_are_never_retried(self, fast_retries,
                                              compile_):
        """A genuinely wrong program fails cleanly with zero retries."""
        module = compile_("""
global a: int[8];
func main() {
  pragma omp parallel_for
  for i in 0..8 {
    a[i] = a[i] / (i - 4);
  }
  print(a[0]);
}
""")
        from repro.runtime import run_source_plan

        with pytest.raises(EmulationError, match="[Dd]ivision"):
            run_source_plan(module, "main", workers=2, seed=0,
                            backend="processes")


# -- chaos conformance sweep ---------------------------------------------------


@pytest.fixture(scope="module")
def chaos_state():
    """Per kernel: (session, sequential reference output) — built once."""
    state = {}
    for name in kernel_names():
        session = build_session(name)
        state[name] = (session, session.execution.output)
    return state


@pytest.mark.parametrize("spec", CHAOS_SCENARIOS)
@pytest.mark.parametrize("kernel", kernel_names())
def test_chaos_sweep(kernel, spec, chaos_state, fast_retries):
    """Every kernel x scenario: recover or fail cleanly, never corrupt."""
    session, expected = chaos_state[kernel]
    inject(spec)
    status, payload = chaos_outcome(
        lambda: session.run("PS-PDG", opt="-O2", workers=2,
                            backend="processes")
    )
    if status == "ok":
        assert outputs_close(payload.output, expected), (
            f"{kernel} under {spec!r}: "
            + describe_mismatch(payload.output, expected)
        )
    else:
        assert isinstance(payload, EmulationError)
