"""The -O3 tier: interchange, skewed fusion, tiling.

Each transform gets a positive case (it fires, its witness records the
side condition, and execution stays conformant on every backend) and a
negative case (the legality predicate rejects with the reason recorded).
Every side condition is decided on the graph: a nest the static test
cannot decide (a non-affine subscript, as in LU's wavefront) is
rejected with the undecided pair as its reason, never applied.
"""

from repro import Session
from repro.opt import OptLevel, optimize_plan
from repro.planner.plans import loop_uid_map, openmp_source_plan
from repro.runtime import run_plan
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
#: subscripts are affine so the test proves the carried dependence.
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

#: The column index is computed through a modulus, so the static test
#: cannot decide the pair — although the slots are in fact disjoint,
#: interchange rejects the nest.
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


class TestUndecidedNests:
    def test_nonaffine_nest_is_rejected_as_undecided(self):
        session, result = _optimize(NEST_NONAFFINE_OK)
        assert result.report.summary()["interchanged"] == 0
        assert all(r.outer_header is None for r in result.plan.regions)
        ((_name, _subject, reason),) = (
            result.report.rejections_for("loop-interchange")
        )
        assert reason.startswith("non-affine subscript leaves ")
        assert reason.endswith(" undecided")
        _assert_conformant(session, result.plan)

    def test_lu_wavefront_is_rejected_and_serialized_as_at_o2(self):
        session = Session.from_kernel("LU")
        plan = session.plan("PS-PDG")
        result = optimize_plan(session.pspdg, plan, OptLevel.O3)
        assert result.report.summary()["interchanged"] == 0
        assert (
            "loop-interchange",
            ("for.header.3", "for.header.4"),
            "non-affine subscript leaves #92 vs #92 on @u undecided",
        ) in result.report.rejected
        assert all(r.outer_header is None for r in result.plan.regions)
        o2 = optimize_plan(session.pspdg, plan, OptLevel.O2)
        assert (result.plan.region_for("for.header.4").backend_override
                == o2.plan.region_for("for.header.4").backend_override)
