"""The -O pass pipeline: legality positives, negatives, and reports.

Fusion/sync-elimination/serialization each get direct positive cases
(the transform fires and execution stays conformant on every backend)
and negative cases (an illegal transform is rejected with the legality
predicate's reason recorded) — on both hand-written sources and the NAS
kernels whose structure motivated the passes (CG fuses, SP must not;
IS's merge critical is redundant, SP's binmax critical is not; LU's
wavefront serializes).
"""

import pytest

from repro import Session
from repro.analysis.deptests import constant_trip_count
from repro.opt import OptLevel, price_plan, restructure_plan
from repro.opt.manager import PIPELINES, PRICING_PASSES, seed_regions
from repro.opt.context import OptContext
from repro.opt.cost import loop_cost
from repro.planner.machine import DEFAULT_MACHINE, MachineModel
from repro.planner.plans import loop_uid_map, openmp_source_plan
from support.conformance import outputs_close
from support.plans import run_plan

FUSABLE = """
global a: float[64];
global b: float[64];
global c: float[64];

func main() {
  for i in 0..64 {
    a[i] = float(i) * 0.5;
  }
  pragma omp parallel_for
  for i in 0..64 {
    b[i] = a[i] * 2.0;
  }
  pragma omp parallel_for
  for j in 0..64 {
    c[j] = b[j] + 1.0;
  }
  print("c", c[0], c[31], c[63]);
}
"""

#: Same shape, but the second loop reads its producer at j+1: the
#: cross-loop dependence is carried (distance 1), so per-worker fused
#: execution would read slots another worker has not written yet.
SHIFTED = """
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

#: The second loop consumes a scalar the first loop reduces into: its
#: sequential value is the *complete* sum, which no per-worker fused
#: schedule can have before the first loop fully finishes.
SCALAR_FLOW = """
global a: float[64];
global c: float[64];

func main() {
  for i in 0..64 {
    a[i] = float(i) * 0.5;
  }
  var s: float = 0.0;
  pragma omp parallel_for reduction(+: s)
  for i in 0..64 {
    s = s + a[i];
  }
  pragma omp parallel_for
  for j in 0..64 {
    c[j] = a[j] + s;
  }
  print("c", c[0], c[63]);
}
"""


def _optimize_source(source, level=OptLevel.O2, machine=None):
    session = Session.from_source(source, name="opt-test")
    plan = openmp_source_plan(
        session.function, loop_uid_map(session.loops)
    )
    result = price_plan(
        session.pspdg, restructure_plan(session.pspdg, plan, level),
        machine=machine,
    )
    return session, result


def _annotated_headers(function):
    return [
        annotation.loop_header
        for annotation in function.annotations
        if annotation.loop_header is not None
    ]


class TestFusionLegality:
    def test_adjacent_aligned_loops_fuse(self):
        session, result = _optimize_source(FUSABLE)
        headers = tuple(_annotated_headers(session.function))
        assert result.report.fused == [headers]
        (region,) = [
            r for r in result.plan.regions if headers[0] in r.headers
        ]
        assert region.headers == headers
        assert region.witness.startswith("aligned dependence on @b (#")

    def test_fused_execution_conforms_on_every_backend(self):
        session, result = _optimize_source(FUSABLE)
        expected = session.execution.output
        for backend in ("simulated", "threads", "processes"):
            for workers in (1, 3, 4):
                run = run_plan(
                    session.pspdg, result.plan,
                    workers=workers, backend=backend,
                )
                assert outputs_close(run.output, expected), (
                    backend, workers, run.output)
        # The fused pair really is one dispatch.
        run = run_plan(session.pspdg, result.plan,
                       workers=4, backend="simulated")
        fused = [r for r in run.parallel_regions if r["fused"]]
        assert len(fused) == 1
        assert "+" in fused[0]["header"]

    def test_carried_cross_loop_dependence_rejected(self):
        session, result = _optimize_source(SHIFTED)
        assert result.report.fused == []
        reasons = [
            reason
            for _pass, _subject, reason in result.report.rejected
        ]
        assert any("unaligned dependence" in reason for reason in reasons)
        # And the unfused plan still conforms.
        expected = session.execution.output
        run = run_plan(session.pspdg, result.plan,
                       workers=4, backend="simulated")
        assert outputs_close(run.output, expected)

    def test_scalar_flow_between_loops_rejected(self):
        session, result = _optimize_source(SCALAR_FLOW)
        assert result.report.fused == []
        expected = session.execution.output
        for backend in ("simulated", "processes"):
            run = run_plan(session.pspdg, result.plan,
                           workers=4, backend=backend)
            assert outputs_close(run.output, expected)

    def test_cg_fuses_matvec_with_dot(self, nas_state):
        result = nas_state("CG")
        assert any(len(headers) == 2 for headers in result.report.fused)

    def test_sp_and_bt_stencils_do_not_fuse(self, nas_state):
        for kernel in ("SP", "BT"):
            result = nas_state(kernel)
            assert result.report.fused == [], kernel
            assert any(
                r[0] == "region-fusion" for r in result.report.rejected
            ), kernel


class TestSyncElimination:
    def test_is_merge_critical_removed(self, nas_state):
        result = nas_state("IS")
        removed = result.report.syncs_removed
        assert any(kind == "critical" for _h, kind, _uid in removed)
        (region,) = [
            r for r in result.plan.regions if "for.header.5" in r.headers
        ]
        assert region.removed_sync_uids

    def test_sp_binmax_critical_kept(self, nas_state):
        """binmax[i % 4] collides across iterations (non-affine subscript
        -> conservative carried dependence): the lock must survive."""
        result = nas_state("SP")
        assert result.report.syncs_removed == []
        rejections = [
            r for r in result.report.rejected if r[0] == "sync-elimination"
        ]
        assert any("binmax" in reason for _p, _s, reason in rejections)

    def test_removed_sync_sheds_serialized_uids(self, nas_state):
        result = nas_state("IS")
        loop_plan = result.plan.plan_for("for.header.5")
        assert loop_plan.serialized_uids == frozenset()

    def test_processes_backend_skips_threads_fallback(self, nas_state):
        """With the critical elided, IS's merge loop may run on real
        processes instead of falling back to shared-memory threads."""
        # Priced for the interpreter: the compiled engine's cheaper
        # steps serialize the merge loop off the pool altogether.
        session = Session.from_kernel("IS", opt_level=2,
                                      compile_regions=False)
        result = session.run("PS-PDG", workers=4, backend="processes")
        merge_regions = [
            region
            for region in result.parallel_regions
            if "for.header.5" in region["header"]
        ]
        assert merge_regions
        assert all(
            "(critical)" not in region["backend"]
            for region in merge_regions
        )


class TestSerialization:
    def test_lu_wavefront_leaves_the_process_pool(self, nas_state):
        result = nas_state("LU")
        serialized = {label for label, _cost, _ov in result.report.serialized}
        assert "for.header.4" in serialized
        (region,) = [
            r for r in result.plan.regions if "for.header.4" in r.headers
        ]
        assert region.backend_override in ("sequential", "threads")

    def test_thresholds_come_from_the_machine_model(self):
        # An absurdly high serial threshold serializes everything ...
        machine = MachineModel(serial_region_cost=10**9,
                               threads_region_cost=10**9)
        session, result = _optimize_source(FUSABLE, machine=machine)
        assert all(
            region.backend_override == "sequential"
            for region in result.plan.regions
        )
        # ... and serialized regions are simply not dispatched.
        run = run_plan(session.pspdg, result.plan,
                       workers=4, backend="simulated")
        assert run.parallel_regions == []
        assert outputs_close(run.output, session.execution.output)

    def test_unknown_trip_counts_stay_parallel(self):
        source = """
global a: float[64];

func main() {
  var n: int = 5;
  pragma omp parallel_for
  for i in 0..n {
    a[i] = float(i);
  }
  print("a", a[0], a[4]);
}
"""
        session, result = _optimize_source(source, level=OptLevel.O1)
        assert result.report.serialized == []
        assert all(
            region.backend_override is None
            for region in result.plan.regions
        )


BULK = """
global a: float[4096];

func main() {
  pragma omp parallel_for
  for i in 0..4096 {
    a[i] = float(i) * 2.0;
  }
  print("a", a[0], a[4095]);
}
"""


class TestSerializationCostFeedback:
    """Measured bytes-on-wire feed the process-pool dispatch bar."""

    def _optimize(self, payload_bytes=None, compile_regions=False,
                  compiled_speedup=None):
        session = Session.from_source(BULK, name="payload-feedback")
        plan = openmp_source_plan(
            session.function, loop_uid_map(session.loops)
        )
        return price_plan(
            session.pspdg,
            restructure_plan(session.pspdg, plan, OptLevel.O1),
            payload_bytes=payload_bytes,
            compile_regions=compile_regions,
            compiled_speedup=compiled_speedup,
        )

    def test_without_measurements_the_region_stays_on_the_pool(self):
        result = self._optimize()
        assert len(result.plan.regions) == 1
        assert result.plan.regions[0].backend_override is None

    def test_measured_bytes_raise_the_process_bar(self):
        label = self._optimize().plan.regions[0].label
        result = self._optimize(payload_bytes={label: 10_000_000})
        assert result.plan.regions[0].backend_override == "threads"
        assert result.report.serialized
        # A cheap-to-ship region is unaffected.
        small = self._optimize(payload_bytes={label: 64})
        assert small.plan.regions[0].backend_override is None

    def test_measured_speedup_replaces_the_model_prior(self):
        label = self._optimize().plan.regions[0].label
        # BULK's region costs ~4096 * body steps; the model's 3x prior
        # keeps it above the serial bar, but a measured speedup large
        # enough drops the effective cost below it.
        prior = self._optimize(compile_regions=True)
        assert prior.plan.regions[0].backend_override is None
        measured = self._optimize(
            compile_regions=True, compiled_speedup={label: 1_000_000.0}
        )
        assert measured.plan.regions[0].backend_override == "sequential"
        # Without region compilation the measurement is ignored.
        off = self._optimize(compiled_speedup={label: 1_000_000.0})
        assert off.plan.regions[0].backend_override is None

    def test_serialization_cost_term(self):
        machine = MachineModel()
        assert machine.serialization_cost(0) == 0
        assert machine.serialization_cost(None) == 0
        assert machine.serialization_cost(100_000) == int(
            100_000 * machine.payload_cost_per_byte
        )

    def test_serialization_cost_never_truncates_to_free(self):
        """Sub-1 products must clamp to 1: shipped bytes are never free.

        At the default 0.01/byte, any payload under 100 bytes used to
        truncate to 0 instruction-equivalents."""
        machine = MachineModel()
        assert machine.serialization_cost(1) == 1
        assert machine.serialization_cost(99) == 1
        # The zero-bytes case (nothing shipped) genuinely costs nothing.
        assert machine.serialization_cost(0) == 0

    def test_effective_region_cost_clamps_to_one(self):
        """Regression: cost < speedup truncated to 0, mispricing a
        small-but-real compiled region as free to the serialization
        pass."""
        machine = MachineModel(compiled_speedup=3.0)
        assert machine.effective_region_cost(2, compiled=True) == 1
        assert machine.effective_region_cost(1, compiled=True) == 1
        assert machine.effective_region_cost(9, compiled=True) == 3
        # Interpreted / unknown costs pass through untouched.
        assert machine.effective_region_cost(2, compiled=False) == 2
        assert machine.effective_region_cost(None, compiled=True) is None

    def test_effective_region_cost_prefers_measured_speedup(self):
        machine = MachineModel(compiled_speedup=3.0)
        assert machine.effective_region_cost(
            90, compiled=True, speedup=4.5
        ) == 20
        # None/0 measured values fall back to the model's prior, and
        # sub-1 measured speedups never *raise* the cost.
        assert machine.effective_region_cost(
            90, compiled=True, speedup=None
        ) == 30
        assert machine.effective_region_cost(
            90, compiled=True, speedup=0.25
        ) == 90


class TestCostModel:
    def test_static_trip_counts(self):
        session = Session.from_kernel("LU")
        loops = {
            loop.header.name: loop for loop in session.loops
        }
        assert constant_trip_count(loops["for.header.4"]) == 18
        assert constant_trip_count(loops["for.header.3"]) == 36

    def test_nested_costs_multiply(self):
        session = Session.from_kernel("LU")
        loops = {loop.header.name: loop for loop in session.loops}
        outer = loop_cost(loops["for.header.5"])  # 20 x (20-iter inner)
        inner = loop_cost(loops["for.header.4"])  # 18 flat iterations
        assert outer > inner
        assert outer > 20 * 20  # at least one instruction per inner iter


class TestPipelineStructure:
    def test_o0_seeds_but_never_rewrites(self, nas_state):
        result = nas_state("CG", OptLevel.O0)
        assert all(count == 0 for count in result.report.summary().values())
        assert result.plan.regions  # seeded: one region per DOALL loop
        assert all(len(region.headers) == 1 for region in result.plan.regions)
        assert all(
            region.backend_override is None for region in result.plan.regions
        )

    def test_o1_skips_fusion(self, nas_state):
        result = nas_state("CG", OptLevel.O1)
        assert result.report.fused == []
        assert result.level is OptLevel.O1

    def test_seeded_regions_carry_their_loops_recipes(self):
        """A seeded descriptor holds the recipe the PS-PDG derives for
        its loop, the one object every plan of the graph shares."""
        from repro.planner.recipes import (
            loop_recipe, parallelization_from_pspdg,
        )

        session = Session.from_kernel("MG")
        plan = session.plan("PS-PDG")
        ctx = OptContext(session.pspdg, DEFAULT_MACHINE)
        seeded = seed_regions(ctx, plan)
        loops = session.analyses.loops_by_header
        assert seeded.regions
        for region in seeded.regions:
            (recipe,) = region.recipes
            assert region.headers == (recipe.header,)
            assert recipe is loop_recipe(session.pspdg, recipe.header)
            assert recipe == parallelization_from_pspdg(
                session.pspdg, loops[recipe.header]
            )

    def test_unseeded_and_seeded_plans_dispatch_in_cfg_order(
            self, monkeypatch):
        """One selector: a plan without regions dispatches exactly what
        ``-O0`` seeds, in control-flow order (``for.header.2`` before
        ``for.header.10`` — not the order of the names)."""
        import repro.session

        dispatched = []
        monkeypatch.setattr(
            repro.session, "run_parallel",
            lambda module, regions, name, **options: dispatched.append(
                [region.headers[0] for region in regions]
            ),
        )
        loops = "".join(
            f"  pragma omp parallel_for\n"
            f"  for i{n} in 0..8 {{ a[i{n}] = a[i{n}] + {n}; }}\n"
            for n in range(12)
        )
        source = (
            "global a: int[8];\nfunc main() {\n" + loops
            + '  print("a", a[0], a[7]);\n}\n'
        )
        session, seeded = _optimize_source(source, OptLevel.O0)
        unseeded = openmp_source_plan(
            session.function, loop_uid_map(session.loops)
        )
        assert not unseeded.regions and len(seeded.plan.regions) == 12
        cfg_order = [loop.header.name for loop in session.loops]
        assert cfg_order.index("for.header.2") < cfg_order.index(
            "for.header.10"
        )
        for plan in (unseeded, seeded.plan):
            session.run(plan)
        assert dispatched == [cfg_order, cfg_order]

    def test_level_coercion(self):
        assert OptLevel.coerce("-O2") is OptLevel.O2
        assert OptLevel.coerce("O1") is OptLevel.O1
        assert OptLevel.coerce("0") is OptLevel.O0
        assert OptLevel.coerce(2) is OptLevel.O2
        assert OptLevel.coerce(OptLevel.O1) is OptLevel.O1
        assert OptLevel.coerce(3) is OptLevel.O3
        assert OptLevel.coerce("-O3") is OptLevel.O3
        for bad in ("fast", 4, None, True, 2.0):
            with pytest.raises(ValueError):
                OptLevel.coerce(bad)

    def test_a_fused_region_unifies_its_members_private_sets(self):
        session, result = _optimize_source(FUSABLE)
        from repro.runtime.executor import PreparedRegion

        regions = result.plan.dispatched()
        fused = [region for region in regions if len(region.headers) > 1]
        assert len(fused) == 1
        prepared = PreparedRegion(
            fused[0], session.function, session.analyses.loops_by_header
        )
        member_privates = [
            storage
            for recipe in fused[0].recipes
            for storage in recipe.privatized
        ]
        privates = [storage for storage, _n, _t, _f in prepared.privates]
        # Each storage once, the members' inductions first.
        assert len({id(s) for s in privates}) == len(privates)
        assert privates[:len(prepared.loops)] == [
            loop.canonical.induction for loop in prepared.loops
        ]
        assert {id(s) for s in member_privates} <= {id(s) for s in privates}


class TestRestructureThenPrice:
    """A restructured plan can be re-priced for another machine: pricing
    it again equals restructuring and pricing afresh."""

    def test_pricing_passes_close_every_pipeline(self):
        for passes in PIPELINES.values():
            priced = [issubclass(p, PRICING_PASSES) for p in passes]
            assert priced == sorted(priced)

    @pytest.mark.parametrize("level", (OptLevel.O2, OptLevel.O3))
    @pytest.mark.parametrize("kernel", ("LU", "CG", "SP"))
    def test_repricing_matches_optimizing_afresh(self, kernel, level):
        session = Session.from_kernel(kernel)
        plan = session.plan("PS-PDG")
        restructured = restructure_plan(session.pspdg, plan, level)
        shape = (restructured.plan.describe(),
                 restructured.report.describe())
        for machine in (DEFAULT_MACHINE, MachineModel(
                serial_region_cost=1, threads_region_cost=2)):
            for compiled in (False, True):
                repriced = price_plan(
                    session.pspdg, restructured, machine=machine,
                    compile_regions=compiled,
                )
                afresh = price_plan(
                    session.pspdg,
                    restructure_plan(session.pspdg, plan, level),
                    machine=machine,
                    compile_regions=compiled,
                )
                assert repriced.plan.regions == afresh.plan.regions
                assert repriced.report.describe() == \
                    afresh.report.describe()
        # Pricing never touched the restructured plan or its report.
        assert (restructured.plan.describe(),
                restructured.report.describe()) == shape


@pytest.fixture(scope="module")
def nas_state():
    """kernel (+ level) -> OptimizationResult, memoized per module."""
    cache = {}

    def build(kernel, level=OptLevel.O2):
        key = (kernel, level)
        if key not in cache:
            session = Session.from_kernel(kernel)
            plan = session.plan("PS-PDG")
            cache[key] = price_plan(
                session.pspdg, restructure_plan(session.pspdg, plan, level)
            )
        return cache[key]

    return build
