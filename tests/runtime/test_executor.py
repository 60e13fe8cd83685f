"""Simulated parallel runtime: plans must preserve sequential semantics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.record import FunctionAnalyses
from repro.core.builder import PSPDGBuilder
from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from repro.planner.recipes import LoopParallelization
from repro.runtime import run_parallel
from repro.workloads import build_kernel
from support.plans import prepared, run_source_plan

REDUCTION = """
func main() {
  var s: int = 0;
  pragma omp parallel_for reduction(+: s)
  for i in 0..40 {
    s = s + i * i;
  }
  print(s);
}
"""

CRITICAL_HISTOGRAM = """
global key: int[64];
global hist: int[8];

func main() {
  for s in 0..64 {
    key[s] = (s * 37 + 11) % 8;
  }
  pragma omp for
  for j in 0..64 {
    var b: int = key[j];
    pragma omp critical
    { hist[b] = hist[b] + 1; }
  }
  print(hist[0], hist[1], hist[2], hist[3]);
}
"""

LASTPRIVATE = """
global a: int[16];

func main() {
  var v: int = 0;
  for i in 0..16 { a[i] = i * 3; }
  pragma omp parallel_for lastprivate(v)
  for j in 0..16 {
    v = a[j];
  }
  print(v);
}
"""

FIRSTPRIVATE = """
global a: int[16];

func main() {
  var seed: int = 5;
  pragma omp parallel_for firstprivate(seed)
  for i in 0..16 {
    a[i] = seed + i;
  }
  print(a[0], a[15]);
}
"""

PRIVATE_ARRAY = """
global v: int[64];

func main() {
  var t: int[8];
  pragma omp parallel_for private(t)
  for p in 0..8 {
    for j in 0..8 { t[j] = p * 8 + j; }
    for j in 0..8 { v[p * 8 + j] = t[j] * 2; }
  }
  print(v[0], v[31], v[63]);
}
"""


def assert_matches_sequential(source, seeds=(0, 1, 7), workers=(2, 4)):
    module = compile_source(source)
    expected = run_module(module).formatted_output()
    for worker_count in workers:
        for seed in seeds:
            result = run_source_plan(
                module, workers=worker_count, seed=seed
            )
            assert result.formatted_output() == expected, (
                f"workers={worker_count} seed={seed}"
            )


class TestSourcePlans:
    def test_integer_reduction(self):
        assert_matches_sequential(REDUCTION)

    def test_critical_histogram(self):
        assert_matches_sequential(CRITICAL_HISTOGRAM)

    def test_lastprivate_writeback(self):
        assert_matches_sequential(LASTPRIVATE)

    def test_firstprivate_seeding(self):
        assert_matches_sequential(FIRSTPRIVATE)

    def test_private_array(self):
        assert_matches_sequential(PRIVATE_ARRAY)

    def test_threadprivate_buffer_kernel(self):
        module = build_kernel("IS")
        expected = run_module(module).formatted_output()
        # The IS source plan parallelizes only loop 2; prv is
        # threadprivate, which the source-plan runner does not privatize —
        # but loop 2's updates through the shared copy remain correct
        # sequentially because increments commute and the critical
        # protects loop 4.  We only check the workshared reduction-free
        # loops here via explicit recipes.
        function = module.function("main")
        annotated = [
            a
            for a in function.annotations
            if a.directive.declares_loop_independence()
            and a.loop_header is not None
        ]
        assert annotated


class TestExplicitRecipes:
    def test_wrong_plan_produces_nondeterminism(self):
        # Parallelizing the histogram *without* the critical lock is a
        # data race; with enough seeds the outputs must diverge from the
        # sequential result at least once (lost updates).  Every iteration
        # hits the same bucket so concurrent load/store windows collide.
        source = CRITICAL_HISTOGRAM.replace(
            "pragma omp critical\n    { hist[b] = hist[b] + 1; }",
            "hist[b] = hist[b] + 1;",
        ).replace("key[s] = (s * 37 + 11) % 8;", "key[s] = 0;")
        module = compile_source(source)
        expected = run_module(module).formatted_output()
        function = module.function("main")
        header = next(
            a.loop_header
            for a in function.annotations
            if a.loop_header is not None
        )
        saw_divergence = False
        for seed in range(8):
            fresh = compile_source(source)
            result = run_parallel(
                fresh,
                prepared(fresh, [LoopParallelization(header=header)]),
                workers=4,
                seed=seed,
            )
            if result.formatted_output() != expected:
                saw_divergence = True
        # Note: with instruction-level interleaving, lost updates are
        # overwhelmingly likely across 8 seeds.
        assert saw_divergence

    def test_chunked_schedules_preserve_results(self):
        module = compile_source(REDUCTION)
        expected = run_module(module).formatted_output()
        from repro.planner.recipes import parallelization_from_annotation

        for chunk in (1, 3, 8, 64):
            fresh_module = compile_source(REDUCTION)
            fresh_recipe = dataclasses.replace(
                parallelization_from_annotation(
                    fresh_module.function("main").annotations[0],
                    fresh_module.function("main"),
                ),
                chunk=chunk,
            )
            result = run_parallel(
                fresh_module, prepared(fresh_module, [fresh_recipe]),
                workers=3, seed=2,
            )
            assert result.formatted_output() == expected


class TestPropertyRandomPrograms:
    @given(
        n=st.integers(4, 32),
        mult=st.integers(1, 5),
        seed=st.integers(0, 5),
        workers=st.integers(1, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_reduction_loops_always_match(self, n, mult, seed, workers):
        source = (
            "func main() {\n"
            "  var s: int = 0;\n"
            "  pragma omp parallel_for reduction(+: s)\n"
            f"  for i in 0..{n} {{ s = s + i * {mult}; }}\n"
            "  print(s);\n"
            "}"
        )
        module = compile_source(source)
        expected = run_module(module).formatted_output()
        fresh = compile_source(source)
        result = run_source_plan(fresh, workers=workers, seed=seed)
        assert result.formatted_output() == expected


# -- validation, schedulers, and real backends (PR 2) --------------------------


class TestValidation:
    """workers/chunk misconfiguration must be a PlanError, not silence."""

    def _module(self):
        return compile_source(REDUCTION)

    def test_workers_below_one_rejected(self):
        from repro.util.errors import PlanError

        for workers in (0, -1, -8):
            with pytest.raises(PlanError, match="workers"):
                run_source_plan(self._module(), workers=workers)

    def test_workers_non_integer_rejected(self):
        from repro.util.errors import PlanError

        with pytest.raises(PlanError, match="workers"):
            run_source_plan(self._module(), workers=2.5)

    def test_chunk_override_validated(self):
        from repro.util.errors import PlanError

        with pytest.raises(PlanError, match="chunk"):
            run_source_plan(self._module(), chunk=0)

    def test_unknown_backend_and_schedule_rejected(self):
        from repro.util.errors import PlanError

        with pytest.raises(PlanError, match="backend"):
            run_source_plan(self._module(), backend="gpu")
        with pytest.raises(PlanError, match="schedule"):
            run_source_plan(self._module(), schedule="fractal")

    @pytest.mark.parametrize("compiled", (True, False))
    @pytest.mark.parametrize("backend", ("simulated", "threads"))
    def test_a_return_inside_a_parallel_loop_is_an_error(
        self, backend, compiled
    ):
        """Neither engine lets a worker leave the function: the compiled
        body and the interpreted workers raise the same error."""
        from repro.util.errors import EmulationError

        module = compile_source(
            "global a: int[8];\n"
            "func main() {\n"
            "  pragma omp parallel_for\n"
            "  for i in 0..8 {\n"
            "    if (i > 5) { return; }\n"
            "    a[i] = i;\n"
            "  }\n"
            "}"
        )
        with pytest.raises(EmulationError, match="return inside"):
            run_source_plan(
                module, workers=2, backend=backend,
                compile_regions=compiled,
            )


class TestChunkSchedulers:
    def test_every_schedule_partitions_exactly(self):
        from repro.runtime.schedulers import make_scheduler

        for name in ("static", "dynamic", "guided"):
            for n in (0, 1, 7, 64, 513):
                for workers in (1, 2, 3, 8):
                    for chunk in (None, 1, 4):
                        parts = make_scheduler(name, chunk).partition(
                            range(n), workers
                        )
                        assert len(parts) == workers
                        flat = sorted(v for p in parts for v in p)
                        assert flat == list(range(n)), (
                            name, n, workers, chunk
                        )

    def test_partition_is_deterministic(self):
        from repro.runtime.schedulers import make_scheduler

        for name in ("static", "dynamic", "guided"):
            a = make_scheduler(name, 2).partition(range(100), 4)
            b = make_scheduler(name, 2).partition(range(100), 4)
            assert a == b

    def test_static_is_round_robin(self):
        from repro.runtime.schedulers import StaticScheduler

        parts = StaticScheduler(1).partition(range(8), 4)
        assert parts == [[0, 4], [1, 5], [2, 6], [3, 7]]
        parts = StaticScheduler(2).partition(range(8), 2)
        assert parts == [[0, 1, 4, 5], [2, 3, 6, 7]]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 200),
        lower=st.integers(-50, 50),
        step=st.integers(1, 7),
        chunk=st.one_of(st.none(), st.integers(1, 9), st.just("beyond")),
        workers=st.integers(1, 9),
    )
    def test_static_strides_equal_the_reference_deal(
        self, n, lower, step, chunk, workers
    ):
        """The stride partition is the chunk-at-a-time deal, list for list
        (``tests/support/reference_deal.py`` is what it replaced)."""
        from repro.runtime.schedulers import StaticScheduler
        from support.reference_deal import static_round_robin

        values = range(lower, lower + n * step, step)
        if chunk == "beyond":
            chunk = n + 1 + workers
        parts = StaticScheduler(chunk).partition(values, workers)
        assert parts == static_round_robin(values, workers, chunk)
        assert all(type(part) is list for part in parts)
        # What ``ParallelInterpreter._partition`` hands in is a list.
        assert StaticScheduler(chunk).partition(list(values), workers) == parts

    def test_guided_chunks_shrink(self):
        from repro.runtime.schedulers import GuidedScheduler

        sizes = [
            len(chunk)
            for _worker, chunk in GuidedScheduler()._deal(
                list(range(512)), 4
            )
        ]
        assert sizes[0] == 64  # 512 // (2*4)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 1

    def test_dynamic_balances_uneven_tails(self):
        from repro.runtime.schedulers import DynamicScheduler

        parts = DynamicScheduler(5).partition(range(13), 3)
        loads = sorted(len(p) for p in parts)
        assert loads == [3, 5, 5]

    def test_worker_validation(self):
        from repro.runtime.schedulers import make_scheduler
        from repro.util.errors import PlanError

        with pytest.raises(PlanError, match="workers"):
            make_scheduler("static").partition(range(4), 0)


class TestRealBackends:
    """threads/processes execute the same recipes as the oracle."""

    SOURCES = (
        REDUCTION,
        CRITICAL_HISTOGRAM,
        LASTPRIVATE,
        FIRSTPRIVATE,
        PRIVATE_ARRAY,
    )

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_source_plans_match_sequential(self, backend):
        for source in self.SOURCES:
            module = compile_source(source)
            expected = run_module(module).formatted_output()
            for workers in (1, 3):
                for schedule in ("static", "dynamic", "guided"):
                    result = run_source_plan(
                        compile_source(source),
                        workers=workers,
                        backend=backend,
                        schedule=schedule,
                    )
                    assert result.formatted_output() == expected, (
                        source, backend, workers, schedule
                    )

    def test_processes_criticals_fall_back_to_threads(self):
        module = compile_source(CRITICAL_HISTOGRAM)
        result = run_source_plan(module, workers=2, backend="processes")
        [region] = result.parallel_regions
        assert region["backend"] == "processes->threads(critical)"
        # ...where the critical loop runs compiled, taking its locks.
        assert region["compiled_chunks"] > 0
        assert region["interpreted_chunks"] == 0

    def test_worker_process_failure_is_reported(self):
        from repro.util.errors import EmulationError

        source = """
        global a: int[4];
        func main() {
          var j: int = 0;
          pragma omp parallel_for
          for i in 0..8 {
            j = i % 5;
            a[j] = 1;
          }
          print(a[0]);
        }
        """
        # Index 4 is out of bounds for int[4]: the child process hits an
        # EmulationError and the parent must surface it, not hang.
        with pytest.raises(EmulationError, match="worker process"):
            run_source_plan(
                compile_source(source), workers=2, backend="processes"
            )

    def test_backend_instances_accepted(self):
        from repro.runtime.backends import ThreadsBackend, get_backend

        backend = get_backend(ThreadsBackend())
        assert backend.name == "threads"
        module = compile_source(REDUCTION)
        expected = run_module(module).formatted_output()
        result = run_source_plan(compile_source(REDUCTION), backend=backend)
        assert result.formatted_output() == expected


SCRATCH_THREADPRIVATE = """
global out: int[8];
global scratch: int[4];
pragma omp threadprivate(scratch)

func main() {
  pragma omp parallel_for
  for i in 0..8 {
    for j in 0..4 { scratch[j] = i + j; }
    var acc: int = 0;
    for j in 0..4 { acc = acc + scratch[j]; }
    out[i] = acc;
  }
  print(out[0], out[7], scratch[0], scratch[3]);
}
"""

MINMAX_FLOAT_REDUCTION = """
func main() {
  var lo: float = 1000.0;
  var hi: float = 0.0 - 1000.0;
  var total: float = 0.0;
  pragma omp parallel_for reduction(min: lo) reduction(max: hi) reduction(+: total)
  for i in 0..32 {
    var x: float = float((i * 37) % 19) - 9.0;
    if (x < lo) { lo = x; }
    if (x > hi) { hi = x; }
    total = total + x;
  }
  print(lo, hi, total);
}
"""


class TestRecipeClassification:
    """PS-PDG variables become the recipe role the runtime needs."""

    def test_live_out_scratch_gets_seeded_lastprivate(self):
        from repro.planner.recipes import parallelization_from_pspdg

        module = compile_source(SCRATCH_THREADPRIVATE)
        function = module.function("main")
        graph = PSPDGBuilder(
            pdg_from_analyses(FunctionAnalyses(function, module))
        ).build()
        loop = next(
            l
            for l in graph.pdg.analyses.loops
            if any(
                a.loop_header == l.header.name
                for a in function.annotations
            )
        )
        recipe = parallelization_from_pspdg(graph, loop)
        names = lambda items: {
            getattr(s, "var_name", None) or getattr(s, "name", None)
            for s in items
        }
        assert "scratch" in names(recipe.firstprivate)
        assert "scratch" in names(recipe.lastprivate)

    @pytest.mark.parametrize("backend", ("simulated", "threads", "processes"))
    def test_scratch_recipe_execution_conforms(self, backend):
        from repro.planner.recipes import parallelization_from_pspdg

        expected = run_module(
            compile_source(SCRATCH_THREADPRIVATE)
        ).formatted_output()
        module = compile_source(SCRATCH_THREADPRIVATE)
        function = module.function("main")
        graph = PSPDGBuilder(
            pdg_from_analyses(FunctionAnalyses(function, module))
        ).build()
        loop = next(
            l
            for l in graph.pdg.analyses.loops
            if any(
                a.loop_header == l.header.name
                for a in function.annotations
            )
        )
        recipe = parallelization_from_pspdg(graph, loop)
        result = run_parallel(
            module, prepared(module, [recipe]), workers=3, backend=backend
        )
        assert result.formatted_output() == expected, backend


class TestReductionMergeOps:
    @pytest.mark.parametrize("backend", ("simulated", "threads", "processes"))
    def test_min_max_float_reductions(self, backend):
        expected = run_module(
            compile_source(MINMAX_FLOAT_REDUCTION)
        ).formatted_output()
        result = run_source_plan(
            compile_source(MINMAX_FLOAT_REDUCTION),
            workers=4,
            backend=backend,
        )
        assert result.formatted_output() == expected, backend

    def test_merge_table_is_total(self):
        from repro.analysis.reductions import REDUCIBLE_OPS
        from repro.frontend.directives import REDUCTION_OPS

        def merge(op, a, b):
            return REDUCIBLE_OPS[op][0](a, b)

        assert merge("add", 2, 3) == 5
        assert merge("mul", 2, 3) == 6
        assert merge("min", 2, 3) == 2
        assert merge("max", 2, 3) == 3
        assert merge("and", 6, 3) == 2
        assert merge("or", 6, 3) == 7
        assert merge("xor", 6, 3) == 5
        # Every operator a clause can spell merges; nothing else does.
        assert set(REDUCTION_OPS.values()) == set(REDUCIBLE_OPS)

    def test_unknown_identity_rejected(self):
        from repro.util.errors import PlanError

        module = compile_source(REDUCTION)
        function = module.function("main")
        from repro.planner.recipes import parallelization_from_annotation

        recipe = parallelization_from_annotation(
            function.annotations[0], function
        )
        recipe = dataclasses.replace(
            recipe, reductions=[(recipe.reductions[0][0], "nand")]
        )
        with pytest.raises(PlanError, match="identity"):
            run_parallel(module, prepared(module, [recipe]))


CALLEE_ARG_LOOP = """
func fill(p: int[16], base: int) {
  pragma omp parallel_for
  for i in 0..16 {
    p[i] = base + i;
  }
}

func main() {
  var local: int[16];
  fill(local, 10);
  print(local[0], local[15]);
}
"""


class TestArgumentPointerWriteback:
    """A DOALL loop in a callee writing through a pointer argument.

    The caller-local array is reachable only via ``frame.args`` inside
    the parallelized function, so the processes backend must diff and
    write back argument-aliased storage, not just globals and allocas.
    """

    @pytest.mark.parametrize("backend", ("simulated", "threads", "processes"))
    def test_callee_arg_stores_flow_back(self, backend):
        expected = run_module(
            compile_source(CALLEE_ARG_LOOP)
        ).formatted_output()
        module = compile_source(CALLEE_ARG_LOOP)
        result = run_parallel(
            module, prepared(module, None, "fill"), workers=3,
            backend=backend,
        )
        assert len(result.parallel_regions) == 1, backend
        assert result.formatted_output() == expected, backend
