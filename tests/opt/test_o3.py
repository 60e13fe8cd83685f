"""The -O3 tier: -O2 plus machine-model tiling.

Tiling's tile shape comes from the machine model and caps the dispatch
width at run time; apart from the tiles an -O3 plan is the -O2 plan, so
a serial-outer / DOALL-inner nest (whether its dependences are carried
across the nest, or undecided by the static test) and a pair of loops
at a non-zero dependence distance are planned exactly as -O2 plans them.
"""

import dataclasses

from repro import Session
from repro.opt import OptLevel, price_plan, restructure_plan
from repro.planner.plans import loop_uid_map, openmp_source_plan
from support.conformance import outputs_close
from support.plans import run_plan

BACKENDS = ("simulated", "threads", "processes")

#: Serial-outer / DOALL-inner perfect nest; every iteration updates its
#: own slot of its own outer row.  The inner loop is too small to pay
#: for a dispatch per outer iteration, so -O2 and -O3 both serialize it.
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

#: Same shape, but each row reads the previous row one column over: the
#: inner loop is DOALL within one outer iteration, yet the dependence
#: is carried across the nest, so only the inner loop may be dispatched.
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

#: The column index is computed through a modulus, which the static
#: dependence test cannot decide; the slots are in fact disjoint.
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
#: 1 (the consumer reads its producer at j+1): fusion must reject.
UNALIGNED = """
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


def _optimize(source, level=OptLevel.O3, session=None, **options):
    """``source``'s plan optimized at ``level``, in ``session`` when
    given (descriptors of one session share their recipes)."""
    session = session or Session.from_source(source, name="o3-test")
    plan = openmp_source_plan(
        session.function, loop_uid_map(session.loops)
    )
    result = price_plan(
        session.pspdg, restructure_plan(session.pspdg, plan, level),
        **options,
    )
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


def _untiled(plan):
    return [dataclasses.replace(r, tile=None) for r in plan.regions]


class TestO3IsO2PlusTiling:
    def test_o3_plans_the_nest_as_o2_plus_tiles(self):
        session, result = _optimize(NEST_OK)
        _session, o2 = _optimize(NEST_OK, OptLevel.O2, session)
        assert _untiled(result.plan) == list(o2.plan.regions)
        assert list(result.report.pass_seconds) == [
            "region-fusion", "sync-elimination",
            "small-region-serialization", "tiling",
        ]
        _assert_conformant(session, result.plan)

    def test_an_inner_carried_nest_is_planned_as_at_o2_and_conforms(self):
        session, result = _optimize(NEST_CARRIED)
        _session, o2 = _optimize(NEST_CARRIED, OptLevel.O2, session)
        assert _untiled(result.plan) == list(o2.plan.regions)
        assert result.plan.loop_plans == o2.plan.loop_plans
        _assert_conformant(session, result.plan)

    def test_a_nonaffine_nest_is_planned_as_at_o2_and_conforms(self):
        session, result = _optimize(NEST_NONAFFINE_OK)
        _session, o2 = _optimize(NEST_NONAFFINE_OK, OptLevel.O2, session)
        assert _untiled(result.plan) == list(o2.plan.regions)
        _assert_conformant(session, result.plan)

    def test_the_nest_runs_serially_where_o0_dispatches_per_outer_row(self):
        """No region is keyed by a nest: unoptimized, each of the 12
        outer iterations dispatches its 16-iteration inner loop; at -O3
        the inner loop is serialized, so nothing dispatches at all."""
        session, result = _optimize(NEST_OK)
        _o0_session, o0 = _optimize(NEST_OK, level=OptLevel.O0)
        o3_run, o0_run = (
            run_plan(session.pspdg, plan, workers=4, backend="processes")
            for plan in (result.plan, o0.plan)
        )
        assert [(r["header"], r["iterations"])
                for r in o0_run.parallel_regions] == [
            ("for.header.3", 16)] * 12
        assert o3_run.parallel_regions == []
        for run in (o3_run, o0_run):
            assert outputs_close(run.output, session.execution.output)

    def test_lu_wavefront_is_serialized_as_at_o2(self):
        session = Session.from_kernel("LU")
        plan = session.plan("PS-PDG")
        o3, o2 = (
            price_plan(
                session.pspdg, restructure_plan(session.pspdg, plan, level)
            ).plan
            for level in (OptLevel.O3, OptLevel.O2)
        )
        (wavefront,) = [
            r for r in o3.regions if "for.header.4" in r.headers
        ]
        assert wavefront.headers == ("for.header.4",)
        assert [r.backend_override for r in o2.regions
                if "for.header.4" in r.headers] == [
                    wavefront.backend_override]
        assert all("for.header.3" not in r.headers for r in o3.regions)

    def test_uniform_distance_fusion_is_rejected_at_every_level(self):
        for level in (OptLevel.O2, OptLevel.O3):
            _session, result = _optimize(UNALIGNED, level=level)
            assert result.report.summary()["fused"] == 0
            reasons = [r for name, _subject, r in result.report.rejected
                       if name == "region-fusion"]
            assert any("unaligned" in reason for reason in reasons)


class TestTiling:
    def test_tile_shape_comes_from_the_machine_model(self):
        _session, result = _optimize(UNALIGNED)
        tiled = [r for r in result.plan.regions if r.tile]
        assert tiled, "no region tiled"
        for region in tiled:
            assert region.tile >= 2, list(region.headers)

    def test_tiling_caps_the_dispatch_width(self):
        session, result = _optimize(UNALIGNED)
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
