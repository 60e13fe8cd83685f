"""The -O3 tier: interchange, skewed fusion, tiling, speculation.

Each transform gets a positive case (it fires, its witness records the
side condition, and execution stays conformant on every backend) and a
negative case (the legality predicate rejects with the reason recorded).
Speculation gets all three endings: validated (the oracle agrees and the
marker is discharged), vetoed (LU's wavefront — the oracle catches the
carried dependence the static test could not see), and disabled
(``speculate=False`` turns inconclusive verdicts into rejections).
Adversarial cases hand-build plans the passes would never produce and
check the two enforcement layers: the oracle pass vetoes them, and the
runtime refuses still-speculative regions on real backends.
"""

import dataclasses
import inspect
import sys

import pytest

from repro import Session
from repro.opt import OptLevel, optimize_plan
from repro.opt.manager import OptReport
from repro.opt.speculate import ORACLE_SEEDS, SpeculationValidationPass
from repro.opt.context import OptContext
from repro.planner.machine import DEFAULT_MACHINE
from repro.planner.plans import loop_uid_map, openmp_source_plan
from repro.runtime import executor, run_plan
from repro.util.errors import PlanError
from support.conformance import outputs_close

BACKENDS = ("simulated", "threads", "processes")

#: Serial-outer / DOALL-inner perfect nest; every iteration updates its
#: own slot of its own outer row, so direction vectors are (*, =) and
#: interchange is provably legal.
NEST_OK = """
global m: float[16][16];

func main() {
  for i in 0..16 {
    for j in 0..16 {
      m[i][j] = float(i * 2 + j) * 0.5;
    }
  }
  for t in 0..12 {
    pragma omp parallel_for
    for i in 0..16 {
      m[t][i] = m[t][i] + float(t) * 0.25;
    }
  }
  print("m", m[0][0], m[5][7], m[11][15]);
}
"""

#: Same shape, but each row reads the previous row one column over:
#: race-free within one inner dispatch, yet the dependence is carried by
#: the inner loop across the nest — interchange must reject, and the
#: subscripts are affine so the rejection is conclusive, not speculative.
NEST_CARRIED = """
global m: float[16][16];

func main() {
  for i in 0..16 {
    for j in 0..16 {
      m[i][j] = float(i + j * 3) * 0.5;
    }
  }
  for t in 1..12 {
    pragma omp parallel_for
    for i in 0..15 {
      m[t][i] = m[t - 1][i + 1] + 1.0;
    }
  }
  print("m", m[1][0], m[6][7], m[11][14]);
}
"""

#: The column index is computed through a modulus, so the static test is
#: inconclusive — but the slots are in fact disjoint, so the oracle
#: validates the speculative interchange.
NEST_NONAFFINE_OK = """
global m: float[8][16];

func main() {
  for t in 0..8 {
    pragma omp parallel_for
    for i in 0..8 {
      var k: int = (i * 2) % 16;
      m[t][k] = float(t + i) * 0.5;
    }
  }
  print("m", m[0][0], m[3][6], m[7][14]);
}
"""

#: Two DOALL loops whose cross-loop dependence sits at uniform distance
#: 1 (the consumer reads its producer at j+1): plain fusion must reject,
#: skew-enabled fusion shifts the second member's partition instead.
SKEWABLE = """
global a: float[64];
global b: float[64];
global c: float[64];

func main() {
  for i in 0..63 {
    a[i] = float(i) * 0.5;
  }
  pragma omp parallel_for
  for i in 0..63 {
    b[i] = a[i] * 2.0;
  }
  pragma omp parallel_for
  for j in 0..63 {
    c[j] = b[j + 1] * 2.0;
  }
  print("c", c[0], c[31], c[62]);
}
"""


def _optimize(source, level=OptLevel.O3, **options):
    session = Session.from_source(source, name="o3-test")
    plan = openmp_source_plan(
        session.function, loop_uid_map(session.loops)
    )
    result = optimize_plan(session.pspdg, plan, level, **options)
    return session, result


def _assert_conformant(session, plan, workers=4):
    expected = session.execution.output
    for backend in BACKENDS:
        for seed in (0, 1):
            result = run_plan(
                session.pspdg, plan,
                workers=workers, seed=seed, backend=backend,
            )
            assert outputs_close(result.output, expected), (
                f"{backend} seed={seed}: {result.output} != {expected}"
            )


class TestInterchange:
    def test_perfect_nest_interchanges_and_conforms(self):
        session, result = _optimize(NEST_OK)
        assert result.report.summary()["interchanged"] == 1
        region = next(r for r in result.plan.regions if r.outer_header)
        assert region.speculative is None
        assert "direction vectors (*, =)" in region.witness
        _assert_conformant(session, result.plan)

    def test_interchanged_nest_dispatches_once(self):
        session, result = _optimize(NEST_OK)
        run = run_plan(session.pspdg, result.plan,
                       workers=4, backend="processes")
        nested = [r for r in run.parallel_regions if "/" in r["header"]]
        assert len(nested) == 1
        # One dispatch covers all 12 outer x 16 inner pairs.
        assert nested[0]["iterations"] == 12 * 16

    def test_inner_carried_nest_is_rejected_conclusively(self):
        _session, result = _optimize(NEST_CARRIED)
        assert result.report.summary()["interchanged"] == 0
        assert result.report.summary()["speculated"] == 0
        reasons = [r for name, _subject, r in result.report.rejected
                   if name == "loop-interchange"]
        assert any("carried" in reason for reason in reasons)

    def test_o2_does_not_interchange(self):
        _session, result = _optimize(NEST_OK, level=OptLevel.O2)
        assert result.report.summary()["interchanged"] == 0
        assert all(r.outer_header is None for r in result.plan.regions)


class TestSkewedFusion:
    def test_uniform_distance_fuses_with_shift(self):
        session, result = _optimize(SKEWABLE)
        assert result.report.summary()["skewed"] == 1
        fused = next(r for r in result.plan.regions if r.fused)
        assert fused.member_shifts == (0, 1)
        assert "distance 1" in fused.witness
        _assert_conformant(session, result.plan)

    def test_plain_o2_fusion_rejects_the_same_pair(self):
        _session, result = _optimize(SKEWABLE, level=OptLevel.O2)
        assert result.report.summary()["fused"] == 0
        reasons = [r for name, _subject, r in result.report.rejected
                   if name == "region-fusion"]
        assert any("unaligned" in reason for reason in reasons)


class TestTiling:
    def test_tile_shape_comes_from_the_machine_model(self):
        _session, result = _optimize(NEST_OK)
        for region in result.plan.regions:
            if region.tile is None:
                continue
            headers = ([region.outer_header] if region.outer_header
                       else list(region.headers))
            assert region.tile >= 2, headers

    def test_tiling_caps_the_dispatch_width(self):
        session, result = _optimize(SKEWABLE)
        tiled = [r for r in result.plan.regions if r.tile]
        assert tiled, "no region tiled"
        run = run_plan(session.pspdg, result.plan,
                       workers=8, backend="processes")
        by_header = {r["header"]: r for r in run.parallel_regions}
        for region in tiled:
            stats = by_header[region.label]
            # Fused regions count every member's iterations; the runtime
            # partitions one member's trip and reuses the assignment.
            trip = stats["iterations"] // len(region.headers)
            expected_width = min(8, -(-trip // region.tile))
            dispatched = sum(
                1 for w in stats["per_worker"] if w["iterations"]
            )
            assert dispatched == expected_width, region.label


class TestSpeculation:
    def test_nonaffine_but_legal_nest_validates(self):
        session, result = _optimize(NEST_NONAFFINE_OK)
        summary = result.report.summary()
        assert summary["speculated"] == 1
        assert summary["vetoed"] == 0
        assert len(result.report.validated) == 1
        region = next(r for r in result.plan.regions if r.outer_header)
        # Validation discharges the marker so real backends accept it.
        assert region.speculative is None
        assert "oracle-validated" in region.witness
        _assert_conformant(session, result.plan)

    def test_lu_wavefront_speculation_is_vetoed(self):
        session = Session.from_kernel("LU")
        plan = session.plan("PS-PDG")
        result = optimize_plan(session.pspdg, plan, OptLevel.O3)
        summary = result.report.summary()
        assert summary["speculated"] == 1
        assert summary["vetoed"] == 1
        pass_name, label, reason = result.report.vetoed[0]
        assert pass_name == "loop-interchange"
        assert "for.header.4" in label
        assert "diverged" in reason
        # The reverted plan carries no nest and no speculation marker...
        assert all(r.outer_header is None for r in result.plan.regions)
        assert all(r.speculative is None for r in result.plan.regions)
        # ...and the wavefront is serialized exactly as -O2 decides.
        o2 = optimize_plan(session.pspdg, plan, OptLevel.O2)
        assert (result.plan.region_for("for.header.4").backend_override
                == o2.plan.region_for("for.header.4").backend_override)

    def test_knob_off_rejects_instead_of_speculating(self):
        _session, result = _optimize(NEST_NONAFFINE_OK, speculate=False)
        summary = result.report.summary()
        assert summary["speculated"] == 0
        assert summary["interchanged"] == 0
        reasons = [r for name, _subject, r in result.report.rejected
                   if name == "loop-interchange"]
        assert any("undecided" in reason or "non-affine" in reason
                   for reason in reasons)


class TestAdversarialSpeculation:
    """Hand-built wrong plans: both enforcement layers must hold."""

    def _carried_nest_state(self):
        session = Session.from_source(NEST_CARRIED, name="adversarial-o3")
        plan = openmp_source_plan(
            session.function, loop_uid_map(session.loops)
        )
        result = optimize_plan(session.pspdg, plan, OptLevel.O0)
        return session, result.plan

    def _force_interchange(self, plan):
        """Apply the interchange the static test (rightly) refused, as
        if the legality predicate had been fooled."""
        regions = []
        for region in plan.regions:
            if region.headers == ("for.header.3",):
                region = dataclasses.replace(
                    region,
                    outer_header="for.header.2",
                    speculative="loop-interchange",
                    witness="adversarial: forced past the static test",
                )
            regions.append(region)
        return plan.with_regions(regions)

    def test_oracle_vetoes_a_wrong_forced_interchange(self):
        session, plan = self._carried_nest_state()
        wrong = self._force_interchange(plan)
        ctx = OptContext(session.pspdg, DEFAULT_MACHINE)
        report = OptReport(level=OptLevel.O3, plan_name=wrong.name)
        checked = SpeculationValidationPass().run(ctx, wrong, report)
        assert len(report.vetoed) == 1
        assert report.validated == []
        assert all(r.outer_header is None for r in checked.regions)
        assert all(r.speculative is None for r in checked.regions)
        # The reverted plan is safe to run for real.
        _assert_conformant(session, checked, workers=3)

    def test_real_backends_refuse_unvalidated_speculation(self):
        session, plan = self._carried_nest_state()
        wrong = self._force_interchange(plan)
        for backend in ("threads", "processes"):
            with pytest.raises(PlanError, match="speculative"):
                run_plan(session.pspdg, wrong,
                         workers=4, backend=backend)

    def test_the_oracle_itself_may_run_speculative_plans(self):
        # The simulated backend is how validation happens, so it must
        # accept the marker — and here it demonstrably diverges.
        session, plan = self._carried_nest_state()
        wrong = self._force_interchange(plan)
        expected = session.execution.output
        diverged = 0
        for seed in range(6):
            result = run_plan(session.pspdg, wrong,
                              workers=4, seed=seed, backend="simulated")
            if not outputs_close(result.output, expected):
                diverged += 1
        assert diverged > 0, "forced interchange never diverged"


class TestOracleCost:
    """The oracle tries a speculative region set once per optimize build."""

    @staticmethod
    def _spy_on_oracle_runs(monkeypatch):
        """Counts of the oracle's reference and stepped runs."""
        runs = {"reference": 0, "stepped": 0}
        real = executor.run_parallel

        def spy(module, parallelizations, *args, **options):
            caller = sys._getframe(1).f_code.co_name
            if caller in ("_oracle_agrees", "run_plan"):
                runs["stepped" if parallelizations else "reference"] += 1
            return real(module, parallelizations, *args, **options)

        monkeypatch.setattr(executor, "run_parallel", spy)
        return runs

    def test_lu_pays_one_run_per_build_and_every_build_pays(
        self, monkeypatch
    ):
        runs = self._spy_on_oracle_runs(monkeypatch)
        session = Session.from_kernel("LU", opt_level=3)
        # Three abstractions speculate the same nest: one reference run
        # and one stepped run (seed 0 diverges, so the pass stops there);
        # 3 + 3 while every abstraction asked for itself.
        vetoed = [
            name for name, result in session.optimizations.items()
            if result.report.vetoed
        ]
        assert sorted(vetoed) == ["J&K", "OpenMP", "PS-PDG"]
        assert runs == {"reference": 1, "stepped": 1}
        # The memo is the build's, not the process's.
        Session.from_kernel("LU", opt_level=3).optimizations
        assert runs == {"reference": 2, "stepped": 2}

    def test_a_validated_set_costs_one_pass_over_the_seeds(
        self, monkeypatch
    ):
        runs = self._spy_on_oracle_runs(monkeypatch)
        session = Session.from_source(
            NEST_NONAFFINE_OK, name="validated", opt_level=3
        )
        validated = {
            name: tuple(result.report.validated)
            for name, result in session.optimizations.items()
            if result.report.validated
        }
        assert len(validated) > 1  # several abstractions, one region set
        assert len(set(validated.values())) == 1
        assert runs == {"reference": 1, "stepped": len(ORACLE_SEEDS)}

    def test_optimize_plan_gained_exactly_the_memo_parameter(self):
        assert list(inspect.signature(optimize_plan).parameters) == [
            "pspdg", "plan", "level", "machine", "payload_bytes",
            "compile_regions", "compiled_speedup", "speculate", "oracle",
        ]
