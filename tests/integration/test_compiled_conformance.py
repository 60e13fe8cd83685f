"""Differential conformance of the region-body compiler.

~50 seeded random programs (tests/support/progen) run compiled vs
interpreted; outputs must match exactly, and with ``VERIFY_COMPILED``
the in-worker oracle additionally diffs every chunk's storage image,
output slice, and step count between the compiled body — the one that
ships — and the interpreter: a passing run here is a per-chunk semantic
equivalence proof, not just an end-to-end output check.

The fallback tests pin the *never fail* contract: a region the lowering
refuses (wholly or partly) must still conform, silently, through the
interpreter.
"""

import re

import pytest

from repro.codegen import cache as codegen_cache
from repro.codegen import lower
from repro.frontend import compile_source
from repro.ir.instructions import Print
from repro.runtime import backends, knobs
from repro.runtime.executor import run_parallel
from repro.session import Session
from repro.util.errors import EmulationError
from support.conformance import outputs_close, wire_bytes
from support.plans import run_source_plan
from support.progen import generate_program

CASES = 50
PROCESS_CASES = 10  # pool dispatch is ~10x the threads cost per program


def _verify_on(monkeypatch):
    monkeypatch.setenv("VERIFY_COMPILED", "1")
    knobs.refresh()


@pytest.mark.parametrize("chunk", range(0, CASES, 10))
def test_progen_compiled_vs_interpreted_threads(chunk, monkeypatch):
    _verify_on(monkeypatch)
    for seed in range(chunk, min(chunk + 10, CASES)):
        source = generate_program(seed)
        baseline = run_source_plan(
            compile_source(source), backend="threads", seed=seed,
            compile_regions=False,
        )
        compiled = run_source_plan(
            compile_source(source), backend="threads", seed=seed,
            compile_regions=True,
        )
        assert outputs_close(compiled.output, baseline.output), (
            f"seed={seed}: compiled threads run diverged"
        )
        assert compiled.steps == baseline.steps, (
            f"seed={seed}: compiled step count diverged"
        )


@pytest.mark.parametrize("chunk", range(0, PROCESS_CASES, 5))
def test_progen_compiled_vs_interpreted_processes(chunk, monkeypatch):
    _verify_on(monkeypatch)
    for seed in range(chunk, min(chunk + 5, PROCESS_CASES)):
        source = generate_program(seed)
        baseline = run_source_plan(
            compile_source(source), backend="processes", seed=seed,
            compile_regions=False,
        )
        compiled = run_source_plan(
            compile_source(source), backend="processes", seed=seed,
            compile_regions=True,
        )
        assert outputs_close(compiled.output, baseline.output), (
            f"seed={seed}: compiled processes run diverged"
        )
        assert compiled.steps == baseline.steps, (
            f"seed={seed}: compiled step count diverged"
        )


def test_progen_planned_sessions_compile(monkeypatch):
    """Planned (PS-PDG) runs conform with compilation on, oracle armed."""
    _verify_on(monkeypatch)
    for seed in range(8):
        source = generate_program(seed)
        session = Session.from_source(
            source, name=f"progen-c-{seed}", backend="threads",
            compile_regions=True,
        )
        expected = session.execution.output
        result = session.run("PS-PDG", workers=3)
        assert outputs_close(result.output, expected), (
            f"seed={seed}: compiled planned run diverged"
        )


SUPPORTED = """
global a: int[24];
global trace: int;

func main() {
  pragma omp parallel_for
  for i in 0..24 {
    a[i] = i * i;
  }
  pragma omp parallel_for reduction(+: trace)
  for i in 0..24 {
    trace = trace + a[i];
    print("partial", a[i]);
  }
  print(trace);
}
"""


def test_compiled_chunks_actually_ran():
    baseline = run_source_plan(
        compile_source(SUPPORTED), backend="threads",
        compile_regions=False,
    )
    result = run_source_plan(
        compile_source(SUPPORTED), backend="threads",
        compile_regions=True,
    )
    assert result.output == baseline.output
    compiled = sum(
        region["compiled_chunks"] for region in result.parallel_regions
    )
    assert compiled > 0, "no chunk took the compiled path"
    assert all(
        region["interpreted_chunks"] == 0
        for region in result.parallel_regions
    )


def test_unsupported_instruction_falls_back_and_conforms(monkeypatch):
    """A loop the lowering refuses must run interpreted, bit-identical.

    Threads only: the refusal is injected by monkeypatching the
    lowering, which cannot reach the already-forked pool children of
    the processes backend (their un-patched lowering would just keep
    compiling — the fallback path itself is identical code in the
    child, exercised by the Bailout tests in tests/codegen).
    """
    backend = "threads"
    original = lower._Lowering.lower_instruction

    def refuse_prints(self, out, inst):
        if isinstance(inst, Print):
            raise lower.Unsupported("test: print refused")
        return original(self, out, inst)

    monkeypatch.setattr(
        lower._Lowering, "lower_instruction", refuse_prints
    )
    codegen_cache.reset()  # drop entries compiled before the patch
    baseline = run_source_plan(
        compile_source(SUPPORTED), backend=backend, compile_regions=False,
    )
    result = run_source_plan(
        compile_source(SUPPORTED), backend=backend, compile_regions=True,
    )
    assert result.output == baseline.output
    assert result.steps == baseline.steps
    interpreted = sum(
        region["interpreted_chunks"] for region in result.parallel_regions
    )
    compiled = sum(
        region["compiled_chunks"] for region in result.parallel_regions
    )
    # First loop (no print) still compiles; the print loop falls back.
    assert interpreted > 0, "refused loop did not fall back"
    assert compiled > 0, "supported loop lost its compiled path"


def test_whole_codegen_failure_still_conforms(monkeypatch):
    """Even a crashing lowering must never take down a run."""

    def explode(loop):
        raise RuntimeError("synthetic codegen bug")

    monkeypatch.setattr(codegen_cache, "compile_chunk", explode)
    codegen_cache.reset()
    baseline = run_source_plan(
        compile_source(SUPPORTED), backend="threads",
        compile_regions=False,
    )
    result = run_source_plan(
        compile_source(SUPPORTED), backend="threads",
        compile_regions=True,
    )
    assert result.output == baseline.output
    assert all(
        region["compiled_chunks"] == 0
        for region in result.parallel_regions
    )


# -- the oracle's teeth, on the body that ships -----------------------------------

#: A store of one slot through a pointer: ``_gv0[_r91_o] = _r87``, or
#: ``_gv0[_r21_o + _p6] = (<fused value>)``.
_STORE = re.compile(
    r"^(\s+_(?:gv\d+|r\d+_s|a\d+_s)\[[^]:]+\]) = (.+)$", re.M
)


@pytest.fixture
def corrupted_lowering(monkeypatch):
    """Every lowered chunk's first store writes its value plus one.

    The pool is rebuilt around the test, so its children fork with the
    patch and no later test meets one that lowered under it.  Yields
    the labels of the chunks corrupted so far.
    """
    corrupted = []
    real = lower.lower_chunk

    def corrupting(analyses, loop):
        source, refs = real(analyses, loop)
        source, hits = _STORE.subn(r"\1 = (\2) + 1", source, count=1)
        if hits:
            corrupted.append(
                f"{loop.header.parent.name}:{loop.header.name}"
            )
        return source, refs

    monkeypatch.setattr(lower, "lower_chunk", corrupting)
    backends._reset_chunk_pool()
    yield corrupted
    backends._reset_chunk_pool()


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_the_armed_oracle_catches_a_corrupt_store_in_the_one_body(
        backend, corrupted_lowering, monkeypatch):
    """There is no second, clean body for the oracle to run instead:
    what it checks is what every unarmed run executes.  At ``-O0``,
    since a GIL build runs LU's ``-O2`` regions in place on threads."""
    monkeypatch.setattr(knobs, "VERIFY_COMPILED", True)
    session = Session.from_kernel("LU", opt_level=0)
    with pytest.raises(
        EmulationError, match="VERIFY_COMPILED divergence at main:"
    ) as caught:
        session.run("PS-PDG", backend=backend, workers=4)
    assert "storage images differ" in str(caught.value)
    assert any(label in str(caught.value) for label in corrupted_lowering)


def test_the_corruption_is_silent_when_the_oracle_is_not_armed(
        corrupted_lowering, monkeypatch):
    """...which is what makes the armed catch mean something."""
    monkeypatch.setattr(knobs, "VERIFY_COMPILED", False)
    session = Session.from_kernel("LU", opt_level=0)
    result = session.run("PS-PDG", backend="threads", workers=4)
    assert corrupted_lowering
    assert not outputs_close(result.output, session.execution.output)


# -- sequential stretches --------------------------------------------------------


def _verify_off(monkeypatch):
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    knobs.refresh()


STRETCHY = """
global a: float[48];
global total: float;

func scale(x: float) -> float {
  return x * 1.5 + 0.25;
}

func main() {
  var warm: float = 0.0;
  for i in 0..16 {
    warm = warm + scale(float(i));
  }
  pragma omp parallel_for
  for i in 0..48 {
    a[i] = scale(float(i)) + warm;
  }
  pragma omp parallel_for reduction(+: total)
  for i in 0..48 {
    total = total + a[i];
  }
  for i in 0..4 {
    print("tail", a[i * 12]);
  }
  print(total);
}
"""


@pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
def test_sequential_stretches_compile_and_conform(backend, monkeypatch):
    """The code *between* regions runs compiled, interpreter-exact."""
    _verify_off(monkeypatch)
    baseline = run_source_plan(
        compile_source(STRETCHY), backend=backend, compile_regions=False,
    )
    compiled = run_source_plan(
        compile_source(STRETCHY), backend=backend, compile_regions=True,
    )
    assert compiled.output == baseline.output
    assert compiled.steps == baseline.steps
    # main's stretches plus every scale() call took the compiled path.
    assert compiled.sequence_stats["compiled"] > 0
    assert compiled.sequence_stats["interpreted"] == 0
    assert baseline.sequence_stats == {"compiled": 0, "interpreted": 0}


@pytest.mark.parametrize("chunk", range(0, CASES, 10))
def test_progen_sequential_stretches_fuzz(chunk, monkeypatch):
    """Whole-program compilation (stretches + chunks), no verify gate.

    VERIFY_COMPILED keeps functions with region stops interpreted (the
    oracle cannot replay a parallel dispatch), so this sweep runs with
    the oracle off to drive progen mains through the sequence compiler.
    """
    _verify_off(monkeypatch)
    compiled_runs = 0
    for seed in range(chunk, min(chunk + 10, CASES)):
        source = generate_program(seed)
        baseline = run_source_plan(
            compile_source(source), backend="threads", seed=seed,
            compile_regions=False,
        )
        result = run_source_plan(
            compile_source(source), backend="threads", seed=seed,
            compile_regions=True,
        )
        assert outputs_close(result.output, baseline.output), (
            f"seed={seed}: compiled whole-program run diverged"
        )
        assert result.steps == baseline.steps, (
            f"seed={seed}: compiled step count diverged"
        )
        compiled_runs += result.sequence_stats.get("compiled", 0)
    assert compiled_runs > 0, "no program took the sequence-compiled path"


# -- guard hoisting --------------------------------------------------------------


OOB = """
global a: int[32];

func main() {
  pragma omp parallel_for
  for i in 0..40 {
    a[i] = i * 2;
  }
  print(a[31]);
}
"""


@pytest.mark.parametrize("backend", ["simulated", "threads"])
def test_out_of_bounds_raises_exact_interpreter_error(backend, monkeypatch):
    """The hoisted fast path must never swallow a real bounds error.

    The chunk compiler drops a guard only where the box proves it; the
    guard that stays raises the interpreter's exact message at the
    exact iteration.
    """
    from repro.emulator.interp import run_module
    from repro.util.errors import EmulationError

    _verify_off(monkeypatch)
    with pytest.raises(EmulationError) as interpreted:
        run_module(compile_source(OOB))
    with pytest.raises(EmulationError) as compiled:
        run_source_plan(
            compile_source(OOB), backend=backend, compile_regions=True,
        )
    assert str(compiled.value) == str(interpreted.value)
    assert "out of bounds" in str(compiled.value)


# -- chunk accounting ------------------------------------------------------------


def test_chunk_accounting_conforms_across_backends(monkeypatch):
    """compiled/interpreted chunk counts agree on every backend.

    The processes backend ships its counts back from the pool children
    in the worker result dict; this pins that they arrive and match the
    in-process backends.
    """
    _verify_off(monkeypatch)
    counts = {}
    for backend in ("simulated", "threads", "processes"):
        result = run_source_plan(
            compile_source(SUPPORTED), backend=backend,
            compile_regions=True,
        )
        counts[backend] = (
            sum(r["compiled_chunks"] for r in result.parallel_regions),
            sum(r["interpreted_chunks"] for r in result.parallel_regions),
            dict(result.sequence_stats),
        )
    assert counts["threads"] == counts["processes"]
    compiled_chunks, interpreted_chunks, sequence_stats = counts["threads"]
    assert compiled_chunks > 0 and interpreted_chunks == 0
    assert sequence_stats == {"compiled": 1, "interpreted": 0}
    # The simulated backend interleaves instructions one at a time (the
    # race oracle) and never takes chunk bodies through codegen — but
    # the sequential stretches around the regions still compile.
    assert counts["simulated"][0] == 0
    assert counts["simulated"][2] == sequence_stats


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_kernels_at_o2_run_wholly_compiled(backend, monkeypatch):
    """LU, BT, SP and IS at -O2: every chunk and every sequential
    stretch takes the compiled path, and it is the interpreted run's
    computation.

    SP's critical section and IS's merge loop among them: a compiled
    chunk takes its locks itself.  A silent fallback anywhere — one
    refused chunk, one interpreted function body — would erode the
    compiled engine without failing an output check.  Nor may the
    engine change what travels: on ``processes`` both ship the same
    bytes once the pool holds the module.  Both engines run the regions
    the session priced for the compiled one and for overlapping workers
    (on a GIL build the ones priced for threads run in place).
    """
    _verify_off(monkeypatch)
    for kernel in ("LU", "BT", "SP", "IS"):
        session = Session.from_kernel(kernel, opt_level=2)
        config = session.config

        def run(compile_regions):
            return run_parallel(
                session.module, session.region_recipes["PS-PDG"],
                config.function_name, workers=4, seed=config.seed,
                backend=backend, schedule=config.schedule,
                chunk=config.chunk, pool_size=config.machine.cores,
                compile_regions=compile_regions,
                analyses=session.analyses,
            )

        run(True)  # compiles every region loop; on processes, ships it
        interpreted = run(False)
        compiled = run(True)
        assert compiled.output == interpreted.output, kernel
        assert compiled.steps == interpreted.steps, kernel
        assert not session.compiled_regions["fallback"], kernel
        regions = compiled.parallel_regions
        assert sum(r["compiled_chunks"] for r in regions) > 0, kernel
        assert sum(r["interpreted_chunks"] for r in regions) == 0, kernel
        assert sum(r["codegen_fallbacks"] for r in regions) == 0, kernel
        assert compiled.sequence_stats["compiled"] > 0, kernel
        assert compiled.sequence_stats["interpreted"] == 0, kernel
        if backend == "processes":
            assert wire_bytes(compiled.parallel_regions) == \
                wire_bytes(interpreted.parallel_regions), kernel
