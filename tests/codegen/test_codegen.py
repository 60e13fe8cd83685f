"""Unit tests for the region-body compiler (repro.codegen).

Lowering fidelity is mostly covered by the differential conformance
suite (tests/integration/test_compiled_conformance.py); these tests pin
the package's own contracts — cache behavior, fallback-never-fail, the
Bailout protocol, and the VERIFY_COMPILED oracle's divergence checks.
"""

import gc

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.codegen import cache as codegen_cache
from repro.codegen import lower, runtime as codegen_runtime
from repro.codegen.lower import CompiledChunk, Unsupported, compile_chunk
from repro.codegen.runtime import Bailout, execute_chunk
from repro.frontend import compile_source
from repro.util.errors import EmulationError

SIMPLE = """
global a: int[32];

func main() {
  pragma omp parallel_for
  for i in 0..32 {
    a[i] = i * 2 + 1;
  }
  print(a[31]);
}
"""

MATHY = """
global x: float[16];
global s: float;

func main() {
  pragma omp parallel_for reduction(+: s)
  for i in 0..16 {
    x[i] = sqrt(float(i)) + sin(float(i)) * 0.5;
    s = s + x[i];
  }
  print(s);
}
"""

NESTED = """
global m: int[8];

func main() {
  pragma omp parallel_for
  for i in 0..8 {
    var acc: int = 0;
    for j in 0..4 {
      acc = acc + i * j;
    }
    m[i] = acc;
  }
  print(m[7]);
}
"""


def _loop(source, index=0):
    """``(record, loop)``: the ``index``-th canonical loop of ``main``."""
    module = compile_source(source)
    analyses = FunctionAnalyses(module.function("main"), module)
    loops = [lp for lp in analyses.loops if lp.canonical]
    return analyses, loops[index]


# -- lowering --------------------------------------------------------------------


def test_lowered_source_pins_interpreter_semantics():
    analyses, loop = _loop(SIMPLE)
    entry = compile_chunk(analyses, loop)
    assert entry.label == f"main:{loop.header.name}"
    source = entry.source
    # Step parity with run_chunk (one step per IR instruction: the
    # seven of the body and the four of the latch, counted once), the
    # exact interpreter error string, and the induction slot written
    # back however the chunk ends.
    assert "parallel worker exceeded max_steps" in source
    assert "_steps += 11" in source
    assert source.count("_steps +=") == 1
    induction = loop.canonical.induction.uid
    assert f"for _p{induction} in iterations:" in source
    tail = source.partition("finally:")[2]
    assert f"_s{induction}[0] = _p{induction}" in tail


def test_nested_sequential_loop_lowers_to_a_python_loop():
    analyses, loop = _loop(NESTED)  # outer parallel loop, inner `for j`
    entry = compile_chunk(analyses, loop)
    assert entry.tier == ("structured", None)
    assert "in range(" in entry.source
    assert "while True:" not in entry.source
    assert "_b = " not in entry.source


def test_float_helpers_route_through_guarded_math():
    analyses, loop = _loop(MATHY)
    source = compile_chunk(analyses, loop).source
    assert "_u_sqrt(" in source
    assert "_u_sin(" in source


def test_non_canonical_loop_is_unsupported():
    analyses, loop = _loop(SIMPLE)
    loop.canonical = None
    with pytest.raises(Unsupported):
        compile_chunk(analyses, loop)


def test_nonfinite_constant_refused():
    with pytest.raises(Unsupported):
        lower._literal(float("inf"))
    with pytest.raises(Unsupported):
        lower._literal(float("nan"))
    assert lower._literal(1.5) == "1.5"
    assert lower._literal(True) == "True"


# -- the cache -------------------------------------------------------------------


def test_cache_hits_and_stats():
    analyses, loop = _loop(SIMPLE)
    module = analyses.module
    first = codegen_cache.compiled_chunk(module, loop, analyses)
    again = codegen_cache.compiled_chunk(module, loop, analyses)
    assert first is again
    stats = codegen_cache.stats()
    assert stats["compiles"] == 1
    assert stats["hits"] == 1
    assert stats["seconds"] > 0


def test_cache_failure_memoizes_fallback(monkeypatch):
    analyses, loop = _loop(SIMPLE)
    module = analyses.module

    def refuse(analyses, loop):
        raise Unsupported("test refusal")

    monkeypatch.setattr(codegen_cache, "compile_chunk", refuse)
    assert codegen_cache.compiled_chunk(module, loop, analyses) is None
    assert codegen_cache.compiled_chunk(module, loop, analyses) is None
    stats = codegen_cache.stats()
    assert stats["fallbacks"] == 1  # second call was a (None) cache hit
    assert stats["hits"] == 1


def test_cache_never_raises_on_codegen_bug(monkeypatch):
    analyses, loop = _loop(SIMPLE)
    module = analyses.module

    def explode(analyses, loop):
        raise RuntimeError("codegen bug")

    monkeypatch.setattr(codegen_cache, "compile_chunk", explode)
    assert codegen_cache.compiled_chunk(module, loop, analyses) is None
    assert codegen_cache.stats()["fallbacks"] == 1


def test_cache_entries_die_with_their_module():
    analyses, loop = _loop(SIMPLE)
    codegen_cache.compiled_chunk(analyses.module, loop, analyses)
    assert len(codegen_cache._FN_CACHE) == 1
    del analyses, loop
    gc.collect()
    # Weak keying: a re-decoded module (new object, same content hash)
    # can never be served another module's entries.
    assert len(codegen_cache._FN_CACHE) == 0


def test_reset_clears_entries_and_counters():
    analyses, loop = _loop(SIMPLE)
    module = analyses.module
    codegen_cache.compiled_chunk(module, loop, analyses)
    codegen_cache.reset()
    assert codegen_cache.stats() == {
        "compiles": 0, "hits": 0, "fallbacks": 0, "seconds": 0.0,
    }
    assert len(codegen_cache._FN_CACHE) == 0


# -- chunk execution -------------------------------------------------------------


class _Shim:
    """Minimal stand-in for _WorkerInterpreter in execute_chunk tests."""

    def __init__(self):
        self.ran_interpreted = 0
        self.output = []
        self.steps = 0
        self.max_steps = 10**9

    def run_chunk(self, loop, frame, iterations, locks):
        self.ran_interpreted += 1


def _entry(fn):
    return CompiledChunk(fn=fn, source="", function="main", header="h")


def test_execute_chunk_without_entry_interprets():
    shim = _Shim()
    mode = execute_chunk(None, shim, "loop", "frame", [1], None)
    assert mode == "interpreted"
    assert shim.ran_interpreted == 1


def test_execute_chunk_runs_compiled_body():
    shim = _Shim()
    hits = []
    entry = _entry(lambda interp, frame, iters, locks: hits.append(iters))
    mode = execute_chunk(entry, shim, "loop", "frame", [1, 2], None)
    assert mode == "compiled"
    assert hits == [[1, 2]]
    assert shim.ran_interpreted == 0


def test_execute_chunk_bailout_falls_back():
    shim = _Shim()

    def bail(interp, frame, iters, locks):
        raise Bailout()

    mode = execute_chunk(_entry(bail), shim, "loop", "frame", [1], None)
    assert mode == "interpreted"
    assert shim.ran_interpreted == 1


# -- the VERIFY_COMPILED oracle --------------------------------------------------


_SLOT = "the alloca"  # the key ``frame.objects`` holds the storage under


class _VerifyShim(_Shim):
    """Shim whose interpreted run writes ``expected`` into the frame's
    storage (through ``frame.objects``, as ``run_chunk`` does)."""

    def __init__(self, expected):
        super().__init__()
        self.expected = expected

    def run_chunk(self, loop, frame, iterations, locks):
        self.ran_interpreted += 1
        frame.objects[_SLOT][0] = self.expected
        self.steps += 1


def _frame():
    from repro.emulator.interp import _Frame

    frame = _Frame(None, ())
    frame.objects[_SLOT] = [0]
    return frame


def _compiled_writer(value, steps=1):
    def fn(interp, frame, iterations, locks):
        frame.objects[_SLOT][0] = value
        interp.steps += steps

    return _entry(fn)


def _armed(entry, shim, frame):
    """``execute_chunk`` as an armed backend calls it: the oracle gets
    the walk over everything the frame reaches."""
    from repro.runtime.payload import _walk_storages

    return execute_chunk(entry, shim, "loop", frame, [1], None,
                         verify=_walk_storages(frame, {}))


def test_verify_agreement_keeps_interpreted_effects():
    frame = _frame()
    storage = frame.objects[_SLOT]
    shim = _VerifyShim(expected=7)
    seen = []

    def fn(interp, frame, iterations, locks):
        seen.append(frame.objects[_SLOT][0])
        frame.objects[_SLOT][0] = 7.0  # equal, and not the same object
        interp.steps += 1

    assert _armed(_entry(fn), shim, frame) == "compiled"
    assert shim.ran_interpreted == 1  # oracle re-ran interpreted
    assert seen == [0]
    # The interpreter ran second, from the restored state, and its
    # write is the one that stays — in the frame's own storage object.
    assert frame.objects[_SLOT] is storage
    assert storage[0] == 7 and type(storage[0]) is int
    assert shim.steps == 1 and shim.output == []


def test_verify_detects_wrong_value():
    frame = _frame()
    shim = _VerifyShim(expected=7)
    entry = _compiled_writer(8)  # compiled writes the wrong value
    with pytest.raises(EmulationError, match="divergence at main:h"):
        _armed(entry, shim, frame)
    # Interpreted state is authoritative and stays applied.
    assert frame.objects[_SLOT] == [7]


def test_verify_detects_missing_write():
    frame = _frame()
    shim = _VerifyShim(expected=7)
    entry = _entry(lambda interp, frame, iters, locks: None)  # writes nothing
    with pytest.raises(EmulationError, match="storage images differ"):
        _armed(entry, shim, frame)


def test_verify_detects_step_divergence():
    frame = _frame()
    shim = _VerifyShim(expected=7)
    entry = _compiled_writer(7, steps=3)  # interpreted counts 1
    with pytest.raises(EmulationError, match="step counts differ"):
        _armed(entry, shim, frame)


def test_verify_compares_and_drops_allocas_first_executed_in_the_chunk():
    frame = _frame()

    class _Alloca:
        uid = 99

    fresh = _Alloca()

    class _Allocates(_VerifyShim):
        def run_chunk(self, loop, frame, iterations, locks):
            assert list(frame.objects) == [_SLOT]  # compiled's is gone
            frame.objects[fresh] = [self.expected]
            self.steps += 1

    def fn(interp, frame, iterations, locks):
        frame.objects[fresh] = [3]
        interp.steps += 1

    assert _armed(_entry(fn), _Allocates(expected=3), frame) == "compiled"
    del frame.objects[fresh]
    with pytest.raises(EmulationError, match="fresh allocas differ"):
        _armed(_entry(fn), _Allocates(expected=4), frame)
    assert frame.objects[fresh] == [4]


def test_verify_compiled_error_with_interpreted_success_diverges():
    frame = _frame()
    shim = _VerifyShim(expected=7)

    def fn(interp, frame, iterations, locks):
        frame.objects[_SLOT][0] = 5  # torn: rolled back all the same
        raise EmulationError("boom")

    with pytest.raises(EmulationError, match="interpreter succeeded"):
        _armed(_entry(fn), shim, frame)
    assert frame.objects[_SLOT] == [7]  # interpreted effects kept


def test_verify_bailout_is_not_a_divergence():
    frame = _frame()
    shim = _VerifyShim(expected=7)

    def fn(interp, frame, iterations, locks):
        raise Bailout()

    assert _armed(_entry(fn), shim, frame) == "interpreted"
    assert frame.objects[_SLOT] == [7]


def test_verify_both_raise_reraises_interpreted_error():
    frame = _frame()

    class _Raises(_VerifyShim):
        def run_chunk(self, loop, frame, iterations, locks):
            raise EmulationError("interpreted boom")

    def fn(interp, frame, iterations, locks):
        raise EmulationError("compiled boom")

    with pytest.raises(EmulationError, match="interpreted boom"):
        _armed(_entry(fn), _Raises(expected=7), frame)


# -- runtime helpers -------------------------------------------------------------


def test_guarded_math_maps_value_errors():
    with pytest.raises(EmulationError, match="math error in sqrt"):
        codegen_runtime.u_sqrt(-1.0)
    assert codegen_runtime.u_floor(2.7) == 2.0
    assert codegen_runtime.u_not(True) is False
    assert codegen_runtime.u_not(0) == -1


def test_unbound_register_maps_unboundlocal_to_interpreter_error():
    error = UnboundLocalError(
        "local variable '_r12' referenced before assignment"
    )
    error.name = "_r12"
    mapped = codegen_runtime.unbound_register(error)
    assert isinstance(mapped, EmulationError)
    assert str(mapped) == "use of unexecuted instruction %12"
    # Pointer halves map to the same instruction uid.
    halves = codegen_runtime.unbound_register(
        UnboundLocalError("x", name="_r7_s")
    )
    assert str(halves) == "use of unexecuted instruction %7"


# -- guard hoisting --------------------------------------------------------------


INDIRECT = """
global a: int[32];
global b: int[32];

func main() {
  pragma omp parallel_for
  for i in 0..32 {
    a[b[i]] = i;
  }
  print(a[0]);
}
"""


def test_affine_guards_drop_over_the_box():
    analyses, loop = _loop(SIMPLE)
    source = compile_chunk(analyses, loop).source
    entry, _, body = source.partition("for _p")
    # Every partition lies in the canonical range 0..31, so a[i] is in
    # bounds wherever it runs: no guard, and nothing left to prove at
    # entry.
    assert "min(iterations)" not in entry
    assert "out of bounds for" not in source
    assert "_fast" not in source
    assert body.count("_steps +=") == 1


def test_indirect_index_keeps_per_iteration_guards():
    analyses, loop = _loop(INDIRECT)
    source = compile_chunk(analyses, loop).source
    # b[i] is in bounds over the box; a[b[i]] has no affine form, so its
    # guard (and only its guard) stays in the body with the
    # interpreter's text.
    body = source.partition("for _p")[2]
    assert source.count("out of bounds for") == 1
    assert "out of bounds for [32 x int]" in body


# -- sequential stretches --------------------------------------------------------


def test_compile_sequence_lowers_whole_function():
    from repro.codegen.seq import compile_sequence

    module = compile_source(SIMPLE)
    entry = compile_sequence(
        FunctionAnalyses(module.function("main"), module), ()
    )
    assert entry.label == "@main"
    # Interpreter-exact semantics: the sequential step-limit message,
    # the UnboundLocalError -> "use of unexecuted instruction" mapping,
    # and a real return.
    assert "exceeded max_steps=" in entry.source
    assert "_unbound" in entry.source
    assert "return" in entry.source


def test_sequence_stops_follow_function_block_order():
    from types import SimpleNamespace

    from repro.codegen.seq import sequence_stops

    module = compile_source(SIMPLE)
    function = module.function("main")
    blocks = function.blocks
    names = [block.name for block in blocks]
    # Register regions against the last and first blocks; the spec must
    # come back in block order regardless.
    regions = {
        blocks[-1]: SimpleNamespace(headers=(names[-1],)),
        blocks[0]: SimpleNamespace(headers=(names[0],)),
    }
    stops = sequence_stops(regions, function)
    assert stops == (
        (names[0], (names[0],)),
        (names[-1], (names[-1],)),
    )
