"""Fault-tolerant region execution: injection, retry, and the failover.

Covers the ``REPRO_FAULTS`` spec grammar, the supervised retry path of
the processes backend (crash / hang / corrupt_wire / drop_result all
recover to byte-identical output), the one failover to ``threads`` a
region takes once its retries run out, and a chaos conformance sweep
over every NAS kernel: a faulted run either matches the sequential
reference or surfaces a clean :class:`EmulationError` — never a hang,
never silent corruption, never an unclassified infrastructure exception.
"""

import os

import pytest

from repro.emulator.interp import run_module
from repro.runtime import backends, faults, knobs
from repro.session import Session
from repro.util.errors import EmulationError, PlanError
from repro.util.regionstats import parallel_report
from repro.workloads import kernel_names
from support.conformance import (
    CHAOS_SCENARIOS,
    chaos_outcome,
    describe_mismatch,
    outputs_close,
)
from support.plans import run_source_plan


@pytest.fixture(autouse=True)
def fresh_pool():
    backends._reset_chunk_pool()
    yield
    backends._reset_chunk_pool()


@pytest.fixture
def fast_retries(monkeypatch):
    """Shrink the retry backoff so chaos tests don't sleep much."""
    monkeypatch.setattr(backends, "RETRY_BACKOFF", 0.01)


def inject(spec):
    """Activate a fault spec for the rest of the test."""
    knobs.REPRO_FAULTS = spec


#: A DOALL whose iteration 4 divides by zero on every backend.
DIVIDES_BY_ZERO = """
global a: int[8];
func main() {
  pragma omp parallel_for
  for i in 0..8 {
    a[i] = a[i] / (i - 4);
  }
  print(a[0]);
}
"""


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

    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_a_malformed_env_spec_fails_a_run_on_every_backend(
            self, backend, monkeypatch):
        """Not only a ``processes`` dispatch parses the spec: a run on a
        backend that never dispatches to a pool rejects it too (EP's one
        region runs in place on a GIL build's ``threads``)."""
        monkeypatch.setenv("REPRO_FAULTS", "nonsense")
        knobs.refresh()
        session = Session.from_kernel("EP")
        with pytest.raises(PlanError, match="unknown fault kind 'nonsense'"):
            session.run("PS-PDG", backend=backend)

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


# -- supervised recovery on the processes backend ------------------------------


class TestSupervisedRecovery:
    def run_lu(self, session, **kwargs):
        return session.run("PS-PDG", opt="-O2", workers=2,
                           backend="processes", **kwargs)

    def test_crash_recovers_byte_identical(self, fast_retries):
        """The ISSUE's acceptance demo: seeded crash on LU -O2."""
        session = Session.from_kernel("LU")
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
        report = parallel_report(faulted.parallel_regions)
        assert "rtry" in report and "rec-ms" in report

    @pytest.mark.parametrize("spec", [
        "corrupt_wire:region=0:worker=1",
        "drop_result:region=0:worker=0",
    ])
    def test_wire_faults_recover(self, fast_retries, spec):
        session = Session.from_kernel("EP")
        clean = session.run("PS-PDG", opt="-O2", workers=2,
                            backend="processes")
        inject(spec)
        faulted = session.run("PS-PDG", opt="-O2", workers=2,
                              backend="processes")
        assert faulted.output == clean.output
        assert sum(r["retries"] for r in faulted.parallel_regions) >= 1
        assert sum(r["faults_injected"]
                   for r in faulted.parallel_regions) >= 1

    def test_hang_trips_region_deadline_and_recovers(self, fast_retries,
                                                     monkeypatch):
        session = Session.from_kernel("EP")
        clean = session.run("PS-PDG", opt="-O2", workers=2,
                            backend="processes")
        monkeypatch.setattr(backends, "_region_allowance", lambda _steps: 1.5)
        inject("hang:region=0:worker=0:s=30")
        faulted = session.run("PS-PDG", opt="-O2", workers=2,
                              backend="processes")
        assert faulted.output == clean.output
        assert sum(r["retries"] for r in faulted.parallel_regions) >= 1


class TestDegradationLadder:
    """One way down: processes, then threads once, then a clean error."""

    @pytest.fixture
    def one_retry(self, fast_retries, monkeypatch):
        monkeypatch.setattr(backends, "RETRY_BUDGET", 1)

    def test_exhausted_retries_fail_over_and_warm_reruns_pay_again(
            self, one_retry):
        session = Session.from_kernel("EP")
        expected = session.execution.output
        inject("crash:p=1:seed=1:times=0")  # every dispatch dies
        runs = [
            session.run("PS-PDG", opt="-O2", workers=2, backend="processes")
            for _ in range(2)  # the second is warm, under the same fault
        ]
        assert outputs_close(runs[0].output, expected)
        assert runs[1].output == runs[0].output
        for result in runs:
            (region,) = result.parallel_regions
            assert region["backend"] == "processes->threads(failover)"
            assert region["retries"] == backends.RETRY_BUDGET
            assert region["failovers"] == 1

    @pytest.mark.parametrize("kind", ["corrupt_wire", "drop_result"])
    def test_persistent_wire_faults_take_the_same_one_step(self, one_retry,
                                                           kind):
        """Not only a dead worker: any infrastructure failure that
        outlasts the retries fails over once, to the same output."""
        session = Session.from_kernel("EP")
        expected = session.execution.output
        inject(f"{kind}:p=1:seed=1:times=0")  # every payload is hit
        result = session.run("PS-PDG", opt="-O2", workers=2,
                             backend="processes")
        assert outputs_close(result.output, expected)
        (region,) = result.parallel_regions
        assert region["backend"] == "processes->threads(failover)"
        assert region["retries"] == backends.RETRY_BUDGET
        assert region["failovers"] == 1
        assert region["faults_injected"] > backends.RETRY_BUDGET

    def test_a_region_that_fails_on_threads_too_raises_once(
            self, one_retry, compile_, monkeypatch):
        """Every processes dispatch dies, then the failover meets the
        program's own division by zero: one error naming both attempts,
        and no third backend is tried."""
        serial = []

        def spy(self, interp, prepared, frame, workers, stats):
            serial.append(stats.header)
            return backends.ThreadsBackend.run_region(
                self, interp, prepared, frame, workers, stats
            )

        monkeypatch.setattr(backends.SerialBackend, "run_region", spy)
        module = compile_(DIVIDES_BY_ZERO)

        inject("crash:p=1:seed=1:times=0")
        with pytest.raises(EmulationError) as caught:
            run_source_plan(module, "main", workers=2, seed=0,
                            backend="processes")
        assert type(caught.value) is EmulationError
        message = str(caught.value)
        assert "processes" in message and "threads" in message
        assert "ivision" in message
        assert serial == []

    def test_program_errors_are_never_retried(self, fast_retries,
                                              compile_):
        """A genuinely wrong program fails cleanly with zero retries."""
        module = compile_(DIVIDES_BY_ZERO)

        with pytest.raises(EmulationError, match="[Dd]ivision"):
            run_source_plan(module, "main", workers=2, seed=0,
                            backend="processes")


# -- the two knobs, pairwise, on processes ------------------------------------


@pytest.mark.parametrize("faulted", [False, True], ids=["", "faults"])
@pytest.mark.parametrize("verify", [False, True], ids=["", "verify"])
@pytest.mark.parametrize("kernel", ["EP", "IS"])
def test_knob_pairs_on_processes(kernel, verify, faulted, fast_retries,
                                 monkeypatch):
    """Neither, each and both of ``VERIFY_COMPILED`` and ``REPRO_FAULTS``:
    every cell ends in the sequential output, a faulted one by a retry,
    and no cell leaves a pool child alive after the reset."""
    pids = []
    real = backends._chunk_pool

    def chunk_pool(requested=None):
        pool = real(requested)
        pids.extend(child.pid for child in pool.children)
        return pool

    monkeypatch.setattr(backends, "_chunk_pool", chunk_pool)
    session = Session.from_kernel(kernel)
    expected = run_module(session.module).output
    knobs.VERIFY_COMPILED = verify
    inject("crash:region=0:worker=0" if faulted else "")
    try:
        result = session.run("PS-PDG", opt="-O2", workers=2,
                             backend="processes")
    finally:
        backends._reset_chunk_pool()
    assert outputs_close(result.output, expected)
    regions = result.parallel_regions
    assert any(r["backend"] == "processes" for r in regions)
    retries = sum(r["retries"] for r in regions)
    assert retries >= 1 if faulted else retries == 0
    assert pids
    for pid in set(pids):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # signal 0: an existence check only


# -- chaos conformance sweep ---------------------------------------------------


@pytest.fixture(scope="module")
def chaos_state():
    """Per kernel: (session, sequential reference output) — built once."""
    state = {}
    for name in kernel_names():
        session = Session.from_kernel(name)
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
