"""The structured chunk lowering against ``run_chunk``, engine by engine.

Every chunk a backend dispatches here is run twice from the same state
— the loop's compiled body and ``_WorkerInterpreter.run_chunk`` — and
what each leaves behind is compared: steps, output, error text, every
``frame.objects`` slot and global, and the set of global slots each
stored to (``support.recording``: what an image cannot see).  The
interpreter's run is the one whose effects stay, so a whole program
still ends with the right answer.

The corpus is dense-shaped nests (the benchmark's template), every nas8
region loop, and ``progen``'s body nests (rectangular, triangular,
zero-trip, reversed-index, accumulator, ``while``, ``if``/``else``,
three-deep); hand-written IR covers what the frontend cannot produce.
"""

import dataclasses
import pathlib
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.record import FunctionAnalyses
from repro.codegen import cache as codegen_cache
from repro.codegen import runtime as codegen_runtime
from repro.codegen.lower import (
    Unsupported, _Lowering, chunk_tier, compile_chunk,
)
from repro.codegen.seq import (
    _SequenceLowering, lower_sequence, sequence_stops,
)
from repro.codegen.runtime import Bailout
from repro.emulator.interp import _Frame, run_module
from repro.frontend import compile_source
from repro.ir.instructions import BinaryOp
from repro.ir.loopinfo import CanonicalLoop
from repro.ir.values import Constant
from repro.ir.types import FLOAT, INT
from repro.runtime import knobs
from repro.runtime.backends import (
    SerialBackend, _NullLocks, _WorkerInterpreter,
)
from repro.opt import OptLevel, price_plan, restructure_plan
from repro.planner.plans import loop_uid_map, openmp_source_plan
from repro.planner.recipes import recipes_from_annotations
from repro.runtime.executor import ParallelInterpreter, run_parallel
from repro.session import Session
from repro.util.errors import EmulationError
from repro.workloads.nas import KERNELS
from support.conformance import outputs_close, wire_bytes
from support.ir_parser import parse_ir
from support.plans import prepared, run_plan, run_source_plan
from support.progen import generate_body_nest_program, generate_nest_program
from support.recording import RecordingList, record_global_stores
from support.programs import EARLY_RETURNS, REFUSED_CFGS, dense_source


# -- the two-engine differential ------------------------------------------------


@dataclasses.dataclass
class Observation:
    """What one engine left behind for one chunk."""

    error: str  # None, "Bailout", or the EmulationError's text
    steps: int
    output: list
    slots: dict  # storage label -> contents
    stored: dict  # global label -> the slots stored to (recording ones)


def _storages(shim, frame):
    labelled = {
        f"@{name}": storage
        for name, storage in shim._global_storage.items()
    }
    for name, storage in frame.global_overlay.items():
        labelled[f"@{name} (private)"] = storage
    for alloca, storage in frame.objects.items():
        labelled[f"%{alloca.uid}"] = storage
    return labelled


def _observe(engine, shim, frame):
    recording = [
        storage for storage in shim._global_storage.values()
        if isinstance(storage, RecordingList)
    ]
    for storage in recording:
        storage.stored.clear()
    step_mark, out_mark = shim.steps, len(shim.output)
    error = None
    try:
        engine()
    except Bailout:
        error = "Bailout"
    except EmulationError as raised:
        error = str(raised)
    storages = _storages(shim, frame)
    return Observation(
        error, shim.steps - step_mark, shim.output[out_mark:],
        {label: list(storage) for label, storage in storages.items()},
        {label: set(storage.stored) for label, storage in storages.items()
         if isinstance(storage, RecordingList)},
    )


def differential(loop, shim, frame, iterations):
    """Run the chunk on both engines from one state.

    Returns engine name -> :class:`Observation`; the interpreter runs
    last, so its effects are what the caller's state holds afterwards.
    """
    reachable = list(_storages(shim, frame).values()) + [
        value[0] for value in frame.registers.values()
        if type(value) is tuple
    ]
    saved = [(storage, list(storage)) for storage in reachable]
    objects, registers = dict(frame.objects), dict(frame.registers)
    steps, out_mark = shim.steps, len(shim.output)
    entry = codegen_cache.compiled_chunk(shim.module, loop)
    assert entry is not None, "the lowering refused the loop"
    engines = (
        ("compiled", lambda: entry.fn(shim, frame, iterations, _NullLocks())),
        ("interpreted", lambda: shim.run_chunk(
            loop, frame, iterations, _NullLocks())),
    )
    seen = {}
    for name, engine in engines:
        for storage, contents in saved:
            storage[:] = contents
        for table, before in (
            (frame.objects, objects), (frame.registers, registers)
        ):
            table.clear()
            table.update(before)
        shim.steps = steps
        del shim.output[out_mark:]
        seen[name] = _observe(engine, shim, frame)
    return seen


def assert_engines_agree(seen, label):
    got, reference = seen["compiled"], seen["interpreted"]
    if got.error == "Bailout":
        return  # nothing ran: the interpreter is the chunk
    assert got.error == reference.error, label
    assert got.output == reference.output, label
    if reference.error is not None:
        return  # steps are batched per segment: only the text pins
    assert got.steps == reference.steps, label
    assert got.slots == reference.slots, label
    assert got.stored == reference.stored, label


@pytest.fixture
def unarmed(monkeypatch):
    """``VERIFY_COMPILED`` off: armed, the in-worker oracle would run
    each chunk twice more, and a function holding a planned region stays
    interpreted by design (a dispatch is not replayable)."""
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    knobs.refresh()
    yield
    knobs.refresh()


@pytest.fixture
def chunks(monkeypatch, unarmed):
    """Send every dispatched chunk through :func:`differential`, the
    globals in recording storages.

    Yields the list of ``(label, tier, {engine: error})`` it fills.
    """
    ran = []
    record_global_stores(monkeypatch)

    def execute(entry, shim, loop, frame, iterations, locks, verify=None):
        if entry is None:
            shim.run_chunk(loop, frame, iterations, locks)
            return "interpreted"
        seen = differential(loop, shim, frame, iterations)
        assert_engines_agree(seen, entry.label)
        ran.append((
            entry.label, entry.tier,
            {name: seen[name].error for name in seen},
        ))
        if seen["interpreted"].error is not None:
            raise EmulationError(seen["interpreted"].error)
        return "interpreted"

    monkeypatch.setattr(codegen_runtime, "execute_chunk", execute)
    yield ran


def _all_compiled(ran):
    """Every chunk ran its compiled body to the end, structured."""
    assert ran
    for label, tier, errors in ran:
        assert tier == ("structured", None), label
        assert errors == {"compiled": None, "interpreted": None}, label


# -- the corpus ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 24])
def test_dense_nests_match_run_chunk(n, chunks):
    module = compile_source(dense_source(n))
    expected = run_module(compile_source(dense_source(n))).output
    result = run_source_plan(module, backend=SerialBackend(), workers=2)
    assert outputs_close(result.output, expected)
    _all_compiled(chunks)
    assert len({label for label, _tier, _errors in chunks}) == 4


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_nas_region_loops_match_run_chunk(kernel, chunks):
    session = Session.from_kernel(kernel, opt_level=2)
    result = run_plan(
        session.pspdg, session.optimized_plan("PS-PDG"),
        backend=SerialBackend(), workers=2,
    )
    assert outputs_close(result.output, session.execution.output)
    _all_compiled(chunks)


CASES = 48


@pytest.mark.parametrize("first", range(0, CASES, 12))
def test_generated_body_nests_match_run_chunk(first, chunks):
    for seed in range(first, first + 12):
        source = generate_body_nest_program(seed)
        expected = run_module(compile_source(source)).output
        result = run_source_plan(
            compile_source(source), backend=SerialBackend(),
            workers=3, seed=seed,
        )
        assert outputs_close(result.output, expected), seed
    _all_compiled(chunks)


def test_the_corpus_reaches_every_inner_shape():
    """Not vacuous: the seeds emit each shape, and each shape lowers to
    the Python construct it should."""
    text = "".join(generate_body_nest_program(s) for s in range(CASES))
    for marker in ("while (", "} else {", " = 99;", " - j", "var acc"):
        assert marker in text, marker
    sources = []
    for seed in range(CASES):
        analyses = _record(compile_source(generate_body_nest_program(seed)))
        for loop in analyses.loops:
            if loop.canonical and loop.depth == 0 and loop.children:
                sources.append(compile_chunk(analyses, loop).source)
    joined = "\n".join(sources)
    assert "while True:" in joined and "in range(" in joined
    assert "else:" in joined
    assert not any("_b = " in source for source in sources)


def test_generated_body_nests_run_compiled_on_threads():
    """End to end through the real ``execute_chunk`` (under
    ``VERIFY_COMPILED=1`` the in-worker oracle diffs each chunk too)."""
    for seed in range(0, CASES, 4):
        source = generate_body_nest_program(seed)
        expected, result = (
            run_source_plan(
                compile_source(source), backend="threads", workers=3,
                seed=seed, compile_regions=compiled,
            )
            for compiled in (False, True)
        )
        assert result.output == run_module(compile_source(source)).output
        assert outputs_close(result.output, expected.output), seed
        assert result.steps == expected.steps, seed
        regions = result.parallel_regions
        assert sum(r["compiled_chunks"] for r in regions) > 0, seed
        assert sum(r["interpreted_chunks"] for r in regions) == 0, seed


# -- the bounds proof -----------------------------------------------------------------

OOB = """
global a: int[8][8];
global hits: int[8];

func main() {
  pragma omp parallel_for
  for i in 0..%(outer)s {
    for j in 0..%(inner)s {
      if (%(taken)s) {
        a[i + %(row)s][j + %(column)s] = i + j;
      } else {
        hits[i] = hits[i] + 1;
      }
    }
    %(tail)s
  }
  print(a[0][0], a[7][7], hits[3]);
}
"""


def _oob(outer=8, inner=8, taken="true", row=0, column=0, tail=""):
    return OOB % dict(outer=outer, inner=inner, taken=taken, row=row,
                      column=column, tail=tail)


def test_lus_wavefront_keeps_no_guard_in_its_chunk_or_its_sequence():
    """``j = k - i`` reads as that form, and ``if (j >= 1 && j < 19)``
    bounds it in the arm: with ``i`` in its canonical ``[1, 18]`` (the
    chunk) or its counted interval (the sequence), every index of the
    arm is in bounds over the arm's box."""
    session = Session.from_kernel("LU", opt_level=0)
    analyses = session.analyses
    loop = analyses.loops_by_header["for.header.4"]
    assert "out of bounds" not in compile_chunk(analyses, loop).source
    (source, *_rest) = lower_sequence(analyses, {})
    assert "out of bounds" not in source


def test_the_false_arm_and_an_or_learn_nothing(monkeypatch):
    """Only a true arm of ``&&``-joined compares narrows the box: each
    gep's proof sees the box of the statement it stores for."""
    source = """
global a: int[4];
global b: int[4];
func main() {
  pragma omp parallel_for
  for i in 0..8 {
    b[0] = 0;
    if (i >= 4) { b[1] = 9; } else { a[i] = 1; }
    if (i < 4 || i < 2) { a[i] = 2; }
    if (i < 4 && i >= 0) { a[i] = 3; }
  }
}
"""
    boxes = {}
    proven = _Lowering._proven_in_bounds

    def spy(self, inst):
        (store,) = self._uses[id(inst)]
        boxes[store.value.value] = dict(self._box)
        return proven(self, inst)

    monkeypatch.setattr(_Lowering, "_proven_in_bounds", spy)
    analyses = _record(compile_source(source))
    loop = [lp for lp in analyses.loops if lp.canonical][0]
    body = compile_chunk(analyses, loop).source
    assert boxes[1] == boxes[2] == boxes[0]  # the false arm, the ``||``
    assert boxes[9] != boxes[0] != boxes[3]  # the true arms of compares
    # The else arm's a[i] and the ``||`` arm's keep their guards.
    assert body.count("out of bounds for") == 2


@pytest.mark.parametrize("source", [
    # The index leaves the array only at the outer extreme / only at
    # the inner extreme, outside every ``if``: the box places neither
    # in bounds, so each keeps its guard.
    OOB.replace("if (%(taken)s) {", "a[i + 1][j] = 0; if (%(taken)s) {")
    % dict(outer=8, inner=8, taken="true", row=0, column=0, tail=""),
    OOB.replace("if (%(taken)s) {", "a[i][j + 1] = 0; if (%(taken)s) {")
    % dict(outer=8, inner=8, taken="true", row=0, column=0, tail=""),
], ids=["outer-extreme", "inner-extreme"])
def test_an_index_out_of_bounds_at_an_extreme_raises_inline_at_its_iteration(
    source, chunks,
):
    with pytest.raises(EmulationError) as interpreted:
        run_module(compile_source(source))
    with pytest.raises(EmulationError) as dispatched:
        run_source_plan(
            compile_source(source), backend=SerialBackend(), workers=2,
        )
    assert str(dispatched.value) == str(interpreted.value)
    assert "out of bounds" in str(dispatched.value)
    # Compiled bodies ran and raised it themselves: no bailout.
    failing = [errors for _label, _tier, errors in chunks
               if errors["interpreted"]]
    assert failing and all(
        errors["compiled"] == errors["interpreted"] for errors in failing
    )


def test_an_index_out_of_bounds_on_an_untaken_arm_does_not_bail(chunks):
    """That guard is not proven: it stays inline and never fires."""
    source = _oob(taken="i > 100", row=5, tail="a[i][0] = a[i][0] + 1;")
    module = compile_source(source)
    result = run_source_plan(module, backend=SerialBackend(), workers=2)
    assert result.output == run_module(compile_source(source)).output
    _all_compiled(chunks)
    analyses = _record(module)
    loop = [lp for lp in analyses.loops
            if lp.canonical and lp.depth == 0][0]
    body = compile_chunk(analyses, loop).source
    # Over its arm's box (i in [101, 7], j in [0, 7]) only a[i + 5]
    # can leave its array; the arms' other geps and a[i][0], outside
    # the ``if``, are proven by the box.
    assert body.count("out of bounds for") == 1
    assert "min(iterations)" not in body


def test_a_taken_arm_out_of_bounds_raises_inline_at_its_iteration(chunks):
    source = _oob(taken="i == 6 && j == 2", row=2)
    with pytest.raises(EmulationError) as interpreted:
        run_module(compile_source(source))
    with pytest.raises(EmulationError) as dispatched:
        run_source_plan(
            compile_source(source), backend=SerialBackend(), workers=2,
        )
    assert str(dispatched.value) == str(interpreted.value)
    # Compiled bodies ran and raised it themselves: no bailout.
    errors = chunks[-1][2]
    assert errors["compiled"] == errors["interpreted"]
    assert "index 8 out of bounds" in errors["compiled"]


#: ``fill``'s loop runs to its argument ``n``: its canonical range is not
#: constant, so the box holds nothing for ``i`` and ``p[i]`` keeps its
#: guard in every chunk.
TO_AN_ARGUMENT = """
global a: int[64];

func fill(p: int[64], n: int) {
  pragma omp parallel_for
  for i in 0..n {
    p[i] = i * 3;
  }
}

func main() {
  fill(a, %d);
  print(a[0], a[63]);
}
"""


@pytest.mark.parametrize("n", [64, 65])
def test_a_chunk_over_a_runtime_range_keeps_its_guard_and_runs_compiled(
    n, chunks,
):
    module = compile_source(TO_AN_ARGUMENT % n)
    analyses = _record(module).of(module.function("fill"))
    (loop,) = [lp for lp in analyses.loops if lp.canonical]
    source = compile_chunk(analyses, loop).source
    assert source.count("out of bounds for") == 1
    assert "min(iterations)" not in source
    records = prepared(module, None, "fill")
    if n == 64:
        result = run_parallel(
            module, records, backend=SerialBackend(), workers=2,
        )
        assert result.output == run_module(
            compile_source(TO_AN_ARGUMENT % n)
        ).output
        _all_compiled(chunks)
        return
    with pytest.raises(EmulationError) as interpreted:
        run_module(compile_source(TO_AN_ARGUMENT % n))
    with pytest.raises(EmulationError) as dispatched:
        run_parallel(module, records, backend=SerialBackend(), workers=2)
    assert str(dispatched.value) == str(interpreted.value)
    assert "index 64 out of bounds" in str(dispatched.value)
    # The compiled body raised it itself, at the interpreter's iteration:
    # no bailout.
    seen = [errors for _label, _tier, errors in chunks]
    assert seen and all(
        errors["compiled"] == errors["interpreted"] for errors in seen
    )
    assert str(interpreted.value) in [errors["compiled"] for errors in seen]


# -- the array tier: a counted inner loop's preheader -------------------------


def _counted_loops(source):
    """``(lines before, the for line, its body lines)`` for every ``for
    … in range`` in ``source``."""
    lines = source.splitlines()
    for index, line in enumerate(lines):
        if " in range(" in line:
            depth = len(line) - len(line.lstrip())
            body = []
            for inner in lines[index + 1:]:
                if len(inner) - len(inner.lstrip()) <= depth:
                    break
                body.append(inner.strip())
            yield lines[:index], line, body


def _chunk_sources(name, level=2):
    """Region header -> its lowered chunk source, for ``name``."""
    session = Session.from_source(_tier_source(name), name=name,
                                  opt_level=level)
    return {
        header: codegen_cache.compiled_chunk(
            session.module, session.analyses.loops_by_header[header],
            session.analyses,
        ).source
        for header in session.compiled_regions["tiers"]
    }


def _slices(source):
    """The statements of ``source`` that run a counted loop as slices: a
    slice store's comprehension, or a ``for`` over zipped lanes."""
    return [
        line.strip() for line in source.splitlines()
        if re.search(r"\[[^]]*:[^]]*\] = \[", line)
        or re.match(r"\s*for (_l|.* in zip\()", line)
    ]


def test_a_counted_inner_loop_charges_once_and_hoists_its_row_offsets():
    """dense8 at ``-O2`` (``run-dense``'s level): no inner body counts
    steps or scales a row, and the charge sits in front of the loop.
    Eight trips are below the slice floor: each body stays a loop of one
    fused statement."""
    loops = 0
    for source in _chunk_sources("dense8").values():
        assert not _slices(source)
        for before, line, body in _counted_loops(source):
            assert len(body) == 1, body
            loops += 1
            variable = line.split()[1]
            assert not any(
                "_steps +=" in statement or "* 8" in statement
                for statement in body
            ), line
            charge = [b for b in before if "_steps +=" in b][-1]
            assert charge.endswith(f" - {variable})"), charge
            # Single-use offsets are the subscripts themselves.
            assert not any(
                statement.startswith("_r") and "_o = " in statement
                for statement in body
            ), line
    assert loops == 3


#: ``(program, -O level)``: dense8 and dense96 at ``run-dense``'s level;
#: dense48 (sliced and fused loops side by side) and every kernel at
#: each level.
TIER_RUNS = [("dense8", 2), ("dense96", 2)] + [
    (name, level)
    for name in ("dense48", *sorted(KERNELS)) for level in range(4)
]


def _tier_source(name):
    if name.startswith("dense"):
        return dense_source(int(name[len("dense"):]))
    return KERNELS[name].SOURCE


@pytest.mark.parametrize("name,level", TIER_RUNS)
def test_the_tier_keeps_steps_exact_and_the_armed_oracle_quiet(
        name, level, monkeypatch):
    """On ``threads``: the compiled run's step total is the
    interpreter's, and armed, every chunk's image, output and steps
    match the interpreter's in-worker."""
    session = Session.from_source(_tier_source(name), name=name,
                                  opt_level=level)
    # One plan for both engines: the one priced for the compiled engine.
    plan = session.optimized_plan("PS-PDG")
    runs = {}
    for armed, compiled in ((False, False), (False, True), (True, True)):
        monkeypatch.setattr(knobs, "VERIFY_COMPILED", armed)
        runs[armed, compiled] = session.run(
            plan, backend="threads", workers=2, compile_regions=compiled,
        )
    interpreted = runs[False, False]
    for run in (runs[False, True], runs[True, True]):
        assert run.steps == interpreted.steps
        assert outputs_close(run.output, interpreted.output)
    regions = runs[False, True].parallel_regions
    assert sum(r["compiled_chunks"] for r in regions) > 0


SHAPE = """
global a: int[8][8];
global idx: int[8];

func bump(x: int) -> int {
  return x + 1;
}

func main() {
  pragma omp parallel_for
  for i in 0..8 {
    var k: int = 0;
    for j in 0..8 {
      %s
    }
  }
  print(a[3][5], a[7][7], a[0][0]);
}
"""

#: An inner body the tier rewrites all three ways.
STRAIGHT = "a[i][j] = i * 8 + j;"

#: Inner bodies the tier must leave in today's per-iteration form.
PER_ITERATION = {
    "guarded-gep": "a[i][idx[j]] = a[i][idx[j]] + j;",
    # A constant divisor cannot raise (it is lowered inline); this one
    # keeps ``_trunc_div`` and its guard.
    "division": "a[i][j] = (i * 8 + j) / (j + 1);",
    "if": "if (j > 3) { a[i][j] = j; }",
    "nested-loop": "for m in 0..2 { a[i][j] = a[i][j] + m; }",
    "call": "a[i][j] = bump(j);",
}

#: The stored scalar ``k`` indexes the store: its read stays in the body.
STORED_SUBSCRIPT = "a[i][k] = i + j; k = k + 1;"


def _tier_chunk(body, chunks, source=None):
    """Run ``SHAPE`` around ``body`` (or ``source``) through both
    engines; returns the region loop's lowered source."""
    source = source or SHAPE % body
    result = run_source_plan(
        compile_source(source), backend=SerialBackend(), workers=2,
    )
    assert result.output == run_module(compile_source(source)).output
    _all_compiled(chunks)
    module = compile_source(source)
    return compile_chunk(_record(module), _region_loop(module)).source


def _record(module):
    """The analysis record of ``module``'s ``main``."""
    return FunctionAnalyses(module.function("main"), module)


def _region_loop(module):
    (loop,) = [lp for lp in _record(module).loops
               if lp.canonical and lp.depth == 0]
    return loop


def test_a_straight_counted_body_is_charged_once(chunks):
    source = _tier_chunk(STRAIGHT, chunks)
    (before, line, body), = _counted_loops(source)
    charge = [b for b in before if "_steps +=" in b][-1]
    assert charge.endswith(f" * (8 - {line.split()[1]})")
    # ``i * 8`` and the row offset run in front; the column's offset is
    # the store's subscript and ``i * 8 + j`` its value, fused.
    assert body == [f"_gv0[_r20_o + {line.split()[1]}] = (_r16 + "
                    f"{line.split()[1]})"]


def _charge_window(module, loop, iterations):
    """``max_steps`` from 0 to one past the chunk's total: a trip in the
    head of an outer iteration, in the once-charged loop (where the
    interpreter trips partway through), behind it, and none."""
    shim, frame = _ir_worker(module, loop)
    total = differential(loop, shim, frame, iterations)["interpreted"].steps
    return range(total + 2)


def test_max_steps_tripping_in_an_inner_loop_raises_the_same_message(
        chunks):
    source = dense_source(8)
    with pytest.raises(EmulationError) as dispatched:
        run_source_plan(
            compile_source(source), backend=SerialBackend(), workers=2,
            max_steps=300,
        )
    assert str(dispatched.value) == "parallel worker exceeded max_steps"
    tripped = [errors for _label, _tier, errors in chunks
               if errors["interpreted"]]
    assert tripped
    assert set(tripped[-1].values()) == {
        "parallel worker exceeded max_steps"
    }
    # Every limit around a once-charged loop: the same text, or none.
    module = compile_source(SHAPE % STRAIGHT)
    loop = _region_loop(module)
    iterations = range(0, 2)
    seen = []
    for max_steps in _charge_window(module, loop, iterations):
        shim, frame = _ir_worker(module, loop)
        shim.max_steps = max_steps
        errors = differential(loop, shim, frame, iterations)
        assert errors["compiled"].error == errors["interpreted"].error, (
            max_steps
        )
        if errors["compiled"].error not in seen:
            seen.append(errors["compiled"].error)
    assert seen == ["parallel worker exceeded max_steps", None]


@pytest.mark.parametrize("shape", sorted(PER_ITERATION))
def test_a_body_that_can_raise_or_branch_is_charged_per_iteration(
        shape, chunks):
    source = _tier_chunk(PER_ITERATION[shape], chunks)
    _before, line, body = next(_counted_loops(source))
    assert f" - {line.split()[1]})" not in source
    assert body[0].startswith("_steps += ") and " * " not in body[0]


def test_a_subscript_read_from_a_scalar_stored_in_the_loop_stays_put(
        chunks):
    source = _tier_chunk(STORED_SUBSCRIPT, chunks)
    (_before, _line, body), = _counted_loops(source)
    reads = [s for s in body
             if s.startswith("_r") and " = _p" in s and "+" not in s]
    assert len(reads) == 2  # k for the subscript, k for its increment
    assert "_steps += " in body[0]  # its gep keeps its guard


def test_an_invariance_check_blind_to_stores_is_caught(monkeypatch):
    """Hoisting the read of ``k`` (and of ``j``'s sums) makes every
    iteration store to one slot: the armed oracle sees the images
    differ at the first chunk."""
    from repro.codegen import lower

    monkeypatch.setattr(
        lower._Lowering, "_stored_in",
        staticmethod(lambda scalar, inner: False),
    )
    monkeypatch.setattr(knobs, "VERIFY_COMPILED", True)
    codegen_cache.reset()
    try:
        with pytest.raises(
            EmulationError, match="VERIFY_COMPILED divergence at main:"
        ) as caught:
            run_source_plan(
                compile_source(SHAPE % STORED_SUBSCRIPT),
                backend="threads", workers=2,
            )
        assert "storage images differ" in str(caught.value)
    finally:
        codegen_cache.reset()


# -- constant divisors, fused values, invariant loads, slices ------------------


@given(
    dividend=st.one_of(
        st.integers(-10 ** 12, 10 ** 12),
        st.integers(2 ** 63, 2 ** 70), st.integers(-2 ** 70, -2 ** 63),
    ),
    divisor=st.integers(1, 17), negative=st.booleans(),
)
def test_an_inline_constant_division_truncates_like_the_helpers(
        dividend, divisor, negative):
    from repro.codegen.lower import _divided

    divisor = -divisor if negative else divisor
    for op, helper in (("rem", codegen_runtime.trunc_rem),
                       ("div", codegen_runtime.trunc_div)):
        inline = eval(_divided(op, "a", divisor), {"a": dividend})
        assert inline == helper(dividend, divisor), (op, dividend, divisor)
        assert type(inline) is int


@pytest.mark.parametrize("op,helper", [("/", "_trunc_div"),
                                       ("%", "_trunc_rem")])
def test_a_constant_zero_divisor_keeps_its_helper_and_its_error(
        op, helper, chunks):
    source = SHAPE % f"a[i][j] = (i * 8 + j) {op} 0;"
    with pytest.raises(EmulationError) as interpreted:
        run_module(compile_source(source))
    with pytest.raises(EmulationError) as dispatched:
        run_source_plan(
            compile_source(source), backend=SerialBackend(), workers=2,
        )
    assert str(interpreted.value) == "integer division by zero"
    assert str(dispatched.value) == "integer division by zero"
    assert chunks[-1][2] == {
        "compiled": "integer division by zero",
        "interpreted": "integer division by zero",
    }
    module = compile_source(source)
    lowered = compile_chunk(_record(module), _region_loop(module)).source
    assert f"{helper}(" in lowered and " * (8 - " not in lowered


FLOAT_DIVISION = """
global f: float[8];

func main() {
  pragma omp parallel_for
  for i in 0..8 {
    f[i] = float(i) / 4.0;
  }
  print(f[7]);
}
"""


@pytest.mark.parametrize("divisor", [32768.0, -0.5, 0.0, -0.0])
def test_a_float_division_by_a_literal_is_guarded_only_for_zero(
        divisor, chunks):
    """``-0.0 == 0`` keeps its guard, and both engines raise on it."""

    def module():
        module = compile_source(FLOAT_DIVISION)
        (division,) = [
            inst for block in module.function("main").blocks
            for inst in block.instructions
            if isinstance(inst, BinaryOp) and inst.op == "div"
        ]
        division.operands[1] = Constant(FLOAT, divisor)
        return module

    expected = "float division by zero" if divisor == 0 else None
    divided = module()
    lowered = compile_chunk(_record(divided), _region_loop(divided)).source
    assert ("float division by zero" in lowered) is (expected is not None)
    try:
        run_source_plan(module(), backend=SerialBackend(), workers=2)
    except EmulationError as error:
        assert str(error) == expected
    else:
        assert expected is None
    assert chunks and all(
        errors == {"compiled": expected, "interpreted": expected}
        for _label, _tier, errors in chunks
    )


def test_dense96_runs_its_compute_loops_as_slices():
    """94-96 trips, at or above the floor.  The stencil and the axpy are
    one comprehension over zipped row slices each; the mat-vec a ``for``
    over its two lanes carrying ``acc`` (never ``sum()``: compensated on
    Python >= 3.12); the axpy's ``y[i]`` is read in front.  The init
    loop's ``% 11`` is inline, so it too is charged once."""
    sources = _chunk_sources("dense96")
    init, stencil, matvec, axpy = (
        sources[header] for header in
        ("for.header", "for.header.3", "for.header.5", "for.header.7")
    )
    for source in (stencil, matvec, axpy):
        (sliced,) = _slices(source)
        assert not list(_counted_loops(source)), sliced
        assert "sum(" not in source
    (stencil_store,) = _slices(stencil)
    assert stencil_store.count("_gv0[") == 5 and " in zip(" in stencil_store
    (loop,) = _slices(matvec)
    assert re.fullmatch(r"for _l\d+, _l\d+ in zip\(.*\):", loop)
    assert re.search(r"\n\s+(_p\d+) = \(\1 \+ \(_l\d+ \* _l\d+\)\)\n",
                     matvec)
    (axpy_store,) = _slices(axpy)
    read_y = re.search(r"(_r\d+) = _gv2\[", axpy).group(1)
    assert axpy.index(read_y) < axpy.index(axpy_store)
    assert "_gv2" not in axpy_store
    assert "_trunc_rem(" not in init and " % 11 if " in init
    assert " += 21 * (96 - " in init


#: Around an inner loop of 64 trips, above the slice floor.
WIDE = """
global a: float[4][64];
global b: float[4][64];
global g: float[512];

func main() {
  var line: float[64];
  pragma omp parallel_for private(line)
  for i in 0..4 {
    for j in %(first)s..64 {
      %(body)s
    }
    %(tail)s
  }
  print(a[1][5], a[3][63], b[2][7], b[3][0], b[3][63], g[130], g[511]);
}
"""


def _wide(first, body, tail=""):
    return WIDE % dict(first=first, body=body, tail=tail)


#: Bodies the walk cannot show carry no memory dependence, or whose
#: trips are too few: each keeps its ``for``.
KEPT_LOOPS = {
    # One root read at ``j - 1``, stored at ``j`` (BT's line buffer).
    "recurrence": _wide(1, "a[i][j] = a[i][j - 1] + 1.0;"),
    # One root at two bases (MG's wrap-around row).
    "one-root-two-bases": _wide(
        0, "g[i * 128 + j] = g[i * 128 + 64 + j] + 1.0;"
    ),
    "load-after-store": _wide(
        0, "b[i][j] = a[i][j] * 2.0; a[i][j] = b[i][j] + 1.0;"
    ),
    # ``line`` is a private alloca from outside the chunk: a pointer
    # register, which may hold any storage.
    "pointer-register": _wide(
        0, "line[j] = a[i][j] + 2.0;", "b[i][0] = line[i + 7];"
    ),
    "below-the-floor": _wide(56, "b[i][j] = a[i][j] + 1.0;"),
}


def test_a_long_loop_free_of_dependences_runs_as_slices(chunks):
    source = _tier_chunk(None, chunks, _wide(0, "b[i][j] = a[i][j] + 1.0;"))
    (sliced,) = _slices(source)
    assert sliced.startswith("_gv1[") and "for _l" in sliced
    assert not list(_counted_loops(source))


@pytest.mark.parametrize("shape", sorted(KEPT_LOOPS))
def test_a_loop_that_may_carry_a_dependence_keeps_its_for(shape, chunks):
    source = _tier_chunk(None, chunks, KEPT_LOOPS[shape])
    assert not _slices(source)
    (before, line, body), = _counted_loops(source)
    assert " * (64 - " in [b for b in before if "_steps +=" in b][-1]


def test_a_dependence_check_blind_to_offsets_is_caught(monkeypatch):
    """The recurrence read at ``j - 1`` looks like a read of the stored
    slot: sliced, every ``a[i][j]`` becomes the old ``a[i][j - 1] + 1``
    and the armed oracle sees the images differ at the first chunk."""
    from repro.analysis.affine import AffineExpr
    from repro.codegen import lower

    real = lower.gep_offset
    monkeypatch.setattr(
        lower, "gep_offset",
        lambda *args: (real(*args)[0], AffineExpr.const(0)),
    )
    monkeypatch.setattr(knobs, "VERIFY_COMPILED", True)
    codegen_cache.reset()
    try:
        with pytest.raises(
            EmulationError, match="VERIFY_COMPILED divergence at main:"
        ) as caught:
            run_source_plan(
                compile_source(KEPT_LOOPS["recurrence"]),
                backend="threads", workers=2,
            )
        assert "storage images differ" in str(caught.value)
    finally:
        codegen_cache.reset()


@pytest.mark.parametrize("name", ("dense48", "dense96", *sorted(KERNELS)))
def test_the_pdg_carries_no_array_at_any_sliced_loop(name, monkeypatch):
    """A second opinion from the graph: at every ``-O`` level, each loop
    the tier slices has no array object in ``carried_at`` — the
    subscript test is never less conservative than the PDG's."""
    from repro.codegen import lower

    sliced = []
    real = lower._Lowering._slices

    def spy(self, inner, *args):
        plan = real(self, inner, *args)
        if plan is not None:
            sliced.append(inner)
        return plan

    monkeypatch.setattr(lower._Lowering, "_slices", spy)
    for level in range(4):
        session = Session.from_source(_tier_source(name), name=name,
                                      opt_level=level)
        analyses = session.analyses
        for region in session.region_recipes["PS-PDG"]:
            for header in region.headers:
                lower.lower_chunk(
                    analyses, analyses.loops_by_header[header]
                )
        for inner in sliced:
            carried = session.analyses.carried_at(inner)
            assert all(obj.is_scalar() for obj in carried), (
                level, inner.header.name, carried,
            )
        if name.startswith("dense"):
            assert sliced, level
        sliced.clear()


def test_the_proof_runs_once_per_chunk_not_per_iteration():
    analyses = _record(compile_source(dense_source(8)))
    for loop in analyses.loops:
        if not (loop.canonical and loop.depth == 0 and loop.children):
            continue
        source = compile_chunk(analyses, loop).source
        prologue, _, body = source.partition("for _p")
        assert prologue.count("raise _Bailout()") >= 2
        assert "_Bailout" not in body
        assert "out of bounds" not in source  # every guard hoisted
        assert "if _fast" not in source and "_b = " not in source


# -- promotion and refusals, on hand-written IR -------------------------------

ESCAPE = """
global @a: [8 x int]

func @poke(%p: int*) -> void {
entry:
  %0 = load %p
  %1 = add %0, 1
  store %1, %p
  return
}

func @main() -> void {
entry:
  %0 = alloca int
  store 0, %0
  jump header
header:
  %3 = load %0
  %4 = cmp lt %3, 8
  branch %4, body, exit
body:
  %6 = alloca int
  store 5, %6
  %8 = alloca int
  store 7, %8
  call @poke(%6)
  %11 = load %6
  %12 = load %8
  %13 = add %11, %12
  %14 = load %0
  %15 = gep @a, %14
  store %13, %15
  jump latch
latch:
  %18 = load %0
  %19 = add %18, 1
  store %19, %0
  jump header
exit:
  return
}
"""

TWO_EXITS = """
global @a: [8 x int]

func @main() -> void {
entry:
  %0 = alloca int
  store 0, %0
  jump header
header:
  %3 = load %0
  %4 = cmp lt %3, 8
  branch %4, body, exit
body:
  %6 = alloca int
  store 0, %6
  jump inner
inner:
  %9 = load %6
  %10 = cmp lt %9, 6
  branch %10, work, done
work:
  %12 = load %6
  %13 = load %0
  %14 = cmp eq %12, %13
  branch %14, done, next
next:
  %16 = load %0
  %17 = gep @a, %16
  %18 = load %17
  %19 = add %18, %12
  store %19, %17
  %21 = add %12, 1
  store %21, %6
  jump inner
done:
  jump latch
latch:
  %25 = load %0
  %26 = add %25, 1
  store %26, %0
  jump header
exit:
  return
}
"""


STALE = """
global @a: [8 x int]

func @main() -> void {
entry:
  %0 = alloca int
  store 0, %0
  jump header
header:
  %3 = load %0
  %4 = cmp lt %3, 8
  branch %4, body, exit
body:
  %6 = alloca int
  store 0, %6
  jump inner
inner:
  %9 = load %6
  %10 = cmp lt %9, 3
  branch %10, work, done
work:
  %12 = load %6
  jump next
next:
  %14 = load %6
  %15 = add %14, 1
  store %15, %6
  jump inner
done:
  %18 = load %0
  %19 = gep @a, %18
  store %12, %19
  jump latch
latch:
  %22 = load %0
  %23 = add %22, 1
  store %23, %0
  jump header
exit:
  return
}
"""


def _ir_loop(text):
    """(module, the loop headed ``header``) with canonical form attached
    by hand (the text format does not carry loop metadata)."""
    module = parse_ir(text)
    function = module.function("main")
    induction = function.entry.instructions[0]
    function.loop_info["header"] = CanonicalLoop(
        header="header", body="body", latch="latch", exit="exit",
        induction=induction, lower=Constant(INT, 0),
        upper=Constant(INT, 8), step=Constant(INT, 1),
    )
    loop = _record(module).loops_by_header["header"]
    return module, loop


def _ir_worker(module, loop):
    """A hand-built worker: ``(shim, frame)`` with the induction seeded."""
    shim = _WorkerInterpreter(
        module,
        {g.name: RecordingList([0] * g.value_type.slots())
         for g in module.globals.values()},
        max_steps=10_000,
    )
    frame = _Frame(module.function("main"), [])
    induction = loop.canonical.induction
    storage = frame.objects[induction] = [0]
    frame.registers[induction] = (storage, 0)
    return shim, frame


def _ir_chunk(text, iterations):
    """Both engines over a hand-built worker frame."""
    module, loop = _ir_loop(text)
    shim, frame = _ir_worker(module, loop)
    seen = differential(loop, shim, frame, iterations)
    assert_engines_agree(seen, "main:header")
    assert {obs.error for obs in seen.values()} == {None}
    entry = codegen_cache.compiled_chunk(module, loop)
    return entry, seen


SELF_STORE = """
global a: int[8];

func main() {
  pragma omp parallel_for
  for i in 0..8 {
    a[i] = a[i];
  }
  print(a[0]);
}
"""


def test_a_store_of_a_slots_own_value_is_seen_by_the_recording_storage():
    """What a write log saw and a storage image cannot (the oracle's
    blind spot, and ``diff_table``'s): pinned here, per slot."""
    module = compile_source(SELF_STORE)
    loop = [lp for lp in _record(module).loops if lp.canonical][0]
    shim, frame = _ir_worker(module, loop)
    seen = differential(loop, shim, frame, range(2, 6))
    assert_engines_agree(seen, "main")
    assert seen["compiled"].slots["@a"] == [0] * 8  # no image moved
    assert seen["compiled"].stored == {"@a": {2, 3, 4, 5}}
    seen["compiled"].stored["@a"].discard(3)
    with pytest.raises(AssertionError):
        assert_engines_agree(seen, "main")


def test_an_alloca_whose_address_reaches_a_call_is_not_promoted():
    entry, seen = _ir_chunk(ESCAPE, range(2, 6))
    assert entry.tier == ("structured", None)
    # %8 lives in a local; %6, handed to @poke, stays in its slot.
    assert "_p8 = 7" in entry.source
    assert "_p6" not in entry.source
    assert "_r6_s[_r6_o] = 5" in entry.source
    assert seen["interpreted"].slots["@a"] == [0, 0, 13, 13, 13, 13, 0, 0]
    assert seen["compiled"].slots["%6"] == [6]
    assert seen["compiled"].slots["%8"] == [7]


def test_a_load_used_after_its_loop_keeps_its_own_copy():
    """%12 is read after the counted loop that defines it: it must hold
    the last iteration's value, not the induction local's final one."""
    entry, seen = _ir_chunk(STALE, range(0, 8))
    assert entry.tier == ("structured", None)
    assert "in range(_p6, 3)" in entry.source
    assert "_r12 = _p6" in entry.source
    assert seen["interpreted"].slots["@a"] == [2] * 8


STALE_LANE = """
global @a: [8 x int]
global @g: [64 x int]
global @h: [64 x int]

func @main() -> void {
entry:
  %0 = alloca int
  store 0, %0
  jump header
header:
  %3 = load %0
  %4 = cmp lt %3, 8
  branch %4, body, exit
body:
  %6 = alloca int
  store 0, %6
  jump inner
inner:
  %9 = load %6
  %10 = cmp lt %9, 64
  branch %10, work, done
work:
  %12 = load %6
  %13 = gep @g, %12
  %14 = load %13
  %15 = add %14, %12
  %16 = gep @h, %12
  store %15, %16
  jump next
next:
  %19 = load %6
  %20 = add %19, 1
  store %20, %6
  jump inner
done:
  %23 = load %0
  %24 = gep @a, %23
  store %15, %24
  jump latch
latch:
  %27 = load %0
  %28 = add %27, 1
  store %28, %0
  jump header
exit:
  return
}
"""


def test_a_long_loop_whose_value_is_read_after_it_is_not_sliced():
    """64 trips free of dependences, but %15 is read behind the loop: a
    comprehension's values die with it, so the loop keeps its ``for``."""
    entry, seen = _ir_chunk(STALE_LANE, range(0, 8))
    assert not _slices(entry.source)
    assert " * (64 - " in entry.source
    assert seen["interpreted"].slots["@a"] == [63] * 8


def test_a_loop_left_from_its_body_is_interpreted_and_says_why():
    module, loop = _ir_loop(TWO_EXITS)
    entry = codegen_cache.compiled_chunk(module, loop)
    assert entry is None
    assert chunk_tier(_record(module), loop, entry) == (
        "refused", "inner: loop is left from a block other than its header"
    )
    shim, frame = _ir_worker(module, loop)
    mode = codegen_runtime.execute_chunk(
        entry, shim, loop, frame, range(0, 8), _NullLocks()
    )
    assert mode == "interpreted"
    assert shim._global_storage["a"] == [0, 0, 1, 3, 6, 10, 15, 15]


def test_refused_loops_name_the_block_and_instruction():
    from repro.codegen.lower import lower_chunk

    module, loop = _ir_loop(ESCAPE)
    body = module.function("main").block("body")
    # A pointer-typed load is outside the lowering's matrix.
    from repro.ir.instructions import Load
    from repro.ir.types import PointerType

    fake = Load(body.instructions[0])
    fake.type = PointerType(INT)
    fake.parent, fake.uid = body, 99
    body.instructions.insert(2, fake)
    with pytest.raises(Unsupported) as refused:
        lower_chunk(_record(module), loop)
    assert str(refused.value) == "body <load#99>: load of a pointer value"


# -- saying which tier a loop got -------------------------------------------------


def test_the_stage_record_says_how_each_loop_lowered():
    session = Session.from_source(dense_source(8), name="dense8")
    summary = session.compiled_regions
    assert len(summary["tiers"]) == 4
    assert set(summary["tiers"].values()) == {("structured", None)}
    stats = session.diagnostics.stats("compile_regions")
    assert stats["lowering"].count(":structured") == 4
    assert "lowering=" in session.describe()


def test_a_refused_loop_is_reported_with_its_instruction(monkeypatch):
    from repro.codegen import lower

    real = lower._Lowering.lower_instruction

    def no_prints(self, out, inst):
        if inst.opcode == "print":
            raise lower.Unsupported("prints are off the menu")
        return real(self, out, inst)

    monkeypatch.setattr(lower._Lowering, "lower_instruction", no_prints)
    codegen_cache.reset()
    source = """
    global a: int[4];
    func main() {
      pragma omp parallel_for
      for i in 0..4 { a[i] = i; print("i", i); }
    }
    """
    session = Session.from_source(source, name="refused")
    (tier,) = session.compiled_regions["tiers"].values()
    kind, why = tier
    assert kind == "refused"
    assert why.startswith("for.body <print#")
    assert why.endswith(": prints are off the menu")
    assert session.compiled_regions["fallback"] == ["for.header"]
    codegen_cache.reset()


def test_cli_diagnostics_print_the_lowering(capsys):
    from repro import cli

    # A named plan: source-plan runs skip the warm-up stage and compile
    # lazily, so they have no record to print.
    assert cli.main(["run", "EP", "--plan", "PS-PDG", "--backend",
                     "threads", "--diagnostics"]) == 0
    assert "[lowering] for.header:structured" in capsys.readouterr().err
    assert cli.main(["report", "EP", "--diagnostics"]) == 0
    assert "lowering=for.header:structured" in capsys.readouterr().out


# -- the whole function through the same walk ----------------------------------
#
# A sequential stretch is the walk with the function as its outermost
# region: a planned region is a statement, a ``return`` may leave loops.
# The engine beside it is the interpreter under the same plan.


def _outcome(module, compiled, backend="threads", **options):
    """``(what a run of main under its source plan left behind, its
    sequence stats)``; steps and state only pin when nothing raised."""
    interp = ParallelInterpreter(
        module, prepared(module), workers=2, backend=backend,
        compile_regions=compiled, **options,
    )
    try:
        result = interp.run()
    except EmulationError as raised:
        return {"error": str(raised)}, None
    return {
        "error": None,
        "output": result.output,
        "steps": result.steps,
        "value": result.return_value,
        "globals": {
            name: list(interp._global_storage[name]) for name in module.globals
        },
    }, result.sequence_stats


@pytest.mark.parametrize("name", sorted(REFUSED_CFGS))
def test_a_cfg_the_walk_refuses_runs_interpreted_and_says_why(name):
    text, why = REFUSED_CFGS[name]
    with pytest.raises(Unsupported) as refused:
        lower_sequence(_record(parse_ir(text)), ())
    assert str(refused.value) == why
    seen, stats = _outcome(parse_ir(text), compiled=True)
    assert stats == {"compiled": 0, "interpreted": 1}
    assert seen == _outcome(parse_ir(text), compiled=False)[0]
    reference = run_module(parse_ir(text))
    assert (seen["error"], seen["output"], seen["steps"], seen["value"]) == (
        None, reference.output, reference.steps, reference.return_value
    )


@pytest.mark.parametrize("name", sorted(EARLY_RETURNS))
def test_an_early_return_compiles_and_matches_the_interpreter(name, unarmed):
    source = EARLY_RETURNS[name]
    seen, stats = _outcome(compile_source(source), compiled=True)
    assert stats["interpreted"] == 0 and stats["compiled"] >= 1
    assert seen["error"] is None
    assert seen == _outcome(compile_source(source), compiled=False)[0]
    if "pragma" not in source:
        reference = run_module(compile_source(source))
        assert (seen["output"], seen["steps"], seen["value"]) == (
            reference.output, reference.steps, reference.return_value
        )
    # Cut short anywhere, the error is the interpreter's.
    for max_steps in (seen["steps"] // 3, seen["steps"] - 1):
        cut, _stats = _outcome(
            compile_source(source), compiled=True, max_steps=max_steps
        )
        assert cut == _outcome(
            compile_source(source), compiled=False, max_steps=max_steps
        )[0]
        assert cut["error"] == (
            f"exceeded max_steps={max_steps}; infinite loop?"
        )


def test_early_returns_lower_under_their_if_with_no_dispatch_loop():
    for source in EARLY_RETURNS.values():
        module = compile_source(source)
        for function in module.functions.values():
            analyses = FunctionAnalyses(function, module)
            text, _refs = lower_sequence(analyses, ())
            assert "_b = " not in text and "elif" not in text
            # One statement per ``return`` the function can reach (the
            # frontend closes a function whose every path has returned
            # with one more), and the factory's own.
            reached, stack = set(), [function.entry]
            while stack:
                block = stack.pop()
                if block not in reached:
                    reached.add(block)
                    stack.extend(block.successors())
            returns = sum(
                block.terminator.opcode == "return" for block in reached
            )
            assert text.count("    return ") == returns + 1


# -- the sequence tier: promotion, counted loops, a proof at lowering time --------


def _sequence_source(kernel, level=2):
    session = Session.from_kernel(kernel, opt_level=level)
    regions = {
        r.loops[0].header: r for r in session.region_recipes["PS-PDG"]
    }
    stops = sequence_stops(regions, session.function)
    return lower_sequence(session.analyses, stops)[0]


@pytest.mark.parametrize("kernel", ["IS", "LU"])
def test_a_sequence_counts_its_loops_and_looks_up_no_slot_per_trip(kernel):
    lines = _sequence_source(kernel).splitlines()
    assert any(re.match(r"\s*for _p\d+ in range\(", line) for line in lines)
    loops = []  # indents of the loops around the line
    for index, line in enumerate(lines):
        indent = len(line) - len(line.lstrip())
        while loops and loops[-1] >= indent:
            loops.pop()
        if loops and "_objs.get(" in line:
            # In a loop only under the once-per-activation test of the
            # local it fills.
            storage = line.split("=")[0].strip()
            assert lines[index - 1].strip() == f"if {storage} is None:", line
        if re.match(r"\s*(for .* in |while True:)", line):
            loops.append(indent)


#: A counted sequential loop stores ``s``, which the region reads, and
#: ``t``, which it does not: ``t`` lives in a local between the regions,
#: large enough that a stale zero in its slot would ship fewer bytes.
SCALARS_AROUND_A_REGION = """
global a: int[16];
func main() {
  var s: int = 0;
  var t: int = 0;
  for k in 0..10 { s = s + k; t = t + 100000 * k; }
  pragma omp parallel_for
  for i in 0..16 { a[i] = a[i] + i + s; }
  for k in 0..3 { t = t + a[k]; }
  print("r", a[3], a[15], s, t);
}
"""


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_a_promoted_scalar_is_written_back_before_a_region_stop(
        backend, unarmed):
    module = compile_source(SCALARS_AROUND_A_REGION)
    function = module.function("main")
    (region,) = recipes_from_annotations(function)
    (header,) = region.headers
    stops = ((header, (header,)),)
    source = lower_sequence(_record(module), stops)[0]
    assert "for _p" in source
    options = dict(backend=backend, workers=2, pool_size=2)
    run_source_plan(module, **options)  # ships the module to the pool
    interpreted = run_source_plan(module, compile_regions=False, **options)
    compiled = run_source_plan(module, compile_regions=True, **options)
    assert compiled.sequence_stats == {"compiled": 1, "interpreted": 0}
    assert compiled.output == interpreted.output
    assert compiled.steps == interpreted.steps
    if backend == "processes":
        assert wire_bytes(compiled.parallel_regions) == \
            wire_bytes(interpreted.parallel_regions)


CHARGED_ONCE = """
global a: int[16];
func main() {
  print("start", 1);
  for i in 0..12 { a[i] = a[i] + 2 * i; }
  print("end", a[5]);
}
"""


def _cut_short(compiled, max_steps):
    interp = ParallelInterpreter(
        compile_source(CHARGED_ONCE), (), workers=2, backend="threads",
        compile_regions=compiled, max_steps=max_steps,
    )
    try:
        interp.run()
    except EmulationError as raised:
        return str(raised), interp.output
    return None, interp.output


def test_a_once_charged_sequence_loop_trips_like_the_interpreter(unarmed):
    source = lower_sequence(_record(compile_source(CHARGED_ONCE)), ())[0]
    (before,) = re.findall(r"_steps \+= (\d+)\n", source)[:1]
    (each,) = re.findall(r"_steps \+= (\d+) \* \(12 - _p", source)
    assert "while True" not in source
    # From the first step the loop charges to its last.
    window = range(int(before), int(before) + 12 * int(each))
    for max_steps in window:
        cut = _cut_short(True, max_steps)
        assert cut == _cut_short(False, max_steps), max_steps
        assert cut == (
            f"exceeded max_steps={max_steps}; infinite loop?", [("start", (1,))]
        ), max_steps


# -- stop placement ---------------------------------------------------------------


def _stop_programs():
    for kernel in sorted(KERNELS):
        yield kernel, KERNELS[kernel].SOURCE
    yield "dense24", dense_source(24)


@pytest.mark.parametrize("name,source", list(_stop_programs()))
def test_every_planned_stop_is_a_statement_of_a_compiled_sequence(
        name, source, unarmed):
    """-O0..3 between them nest a stop in a sequential loop (LU -O0
    dispatches its 3 regions 75 times), fuse stops (CG, dense24 at -O2)
    and put two back to back (dense24 -O0)."""
    dispatches = fused = 0
    for level in range(4):
        session = Session.from_source(source, name=name, opt_level=level)
        plan = session.optimized_plan("PS-PDG")  # one plan, both engines
        compiled, interpreted = (
            session.run(plan, backend="threads", workers=3,
                        compile_regions=engine)
            for engine in (True, False)
        )
        assert compiled.sequence_stats == {"compiled": 1, "interpreted": 0}
        assert outputs_close(compiled.output, session.execution.output)
        assert outputs_close(compiled.output, interpreted.output)
        # The plan moves steps (per-worker header tests, reductions), so
        # the step count to match is the interpreter's under that plan.
        assert compiled.steps == interpreted.steps, level
        regions = session.region_recipes["PS-PDG"]
        dispatches += len(compiled.parallel_regions) > len(regions)
        fused += any(region.fused for region in regions)
    if name in ("LU", "CG", "dense24"):
        assert dispatches and (fused or name == "LU")


def test_the_nest_corpus_runs_its_sequence_compiled_at_o3(unarmed):
    """tests/integration/test_o3_fuzz.py's corpus: -O3 serializes every
    nest region, and the sequence around them runs compiled, step for
    step as the interpreter runs it."""
    for seed in range(12):
        source = generate_nest_program(seed)
        session = Session.from_source(source, name=f"nest-{seed}")
        source_plan = openmp_source_plan(
            session.function, loop_uid_map(session.loops)
        )
        plan = price_plan(
            session.pspdg,
            restructure_plan(session.pspdg, source_plan, OptLevel.O3),
        ).plan
        compiled, interpreted = (
            run_plan(session.pspdg, plan, workers=3, backend="threads",
                     compile_regions=engine)
            for engine in (True, False)
        )
        assert compiled.sequence_stats["interpreted"] == 0, seed
        assert outputs_close(compiled.output, session.execution.output)
        assert compiled.steps == interpreted.steps, seed


STOP_THEN_TAIL = """
global a: int[12];
func main() {
  var t: int = 0;
  t = t + 1;
  pragma omp parallel_for
  for i in 0..12 { a[i] = a[i] + i + t; }
  t = t + a[3];
  t = t + a[4];
  print("t", t);
}
"""


def _trips(compiled, max_steps):
    """Who ran out of steps: ``None``, the stepper's workers (``parallel
    execution exceeded``) or a sequential stretch (``exceeded``)."""
    seen, _stats = _outcome(
        compile_source(STOP_THEN_TAIL), compiled, backend="simulated",
        max_steps=max_steps,
    )
    return seen["error"] and seen["error"].partition(" max_steps")[0]


def _step_limit_window():
    """``max_steps`` values around the end of the region: the simulated
    stepper counts on from the ``interp.steps`` the stop handed it, so
    one step too many there trips *inside a worker*."""
    total = _outcome(
        compile_source(STOP_THEN_TAIL), False, backend="simulated"
    )[0]["steps"]
    return range(total - 30, total + 1)


def test_the_step_count_handed_to_a_dispatch_is_exact(unarmed):
    seen = []
    for max_steps in _step_limit_window():
        tripped = _trips(True, max_steps)
        assert tripped == _trips(False, max_steps), max_steps
        if tripped not in seen:
            seen.append(tripped)
    # The window crosses the region's last step: inside a worker, then
    # in the stretch behind the stop, then not at all.
    assert seen == ["parallel execution exceeded", "exceeded", None]


def test_forgetting_to_close_the_segment_before_a_stop_is_caught(
        monkeypatch, unarmed):
    real = _SequenceLowering._emit_loop

    def mutant(self, out, inner):
        segment = self._segment
        resume = real(self, out, inner)
        if inner.header.name in self._stops:
            self._segment = segment  # the stretch behind counts in front
        return resume

    monkeypatch.setattr(_SequenceLowering, "_emit_loop", mutant)
    # Totals still agree: only the count *at the dispatch* is wrong.
    assert _trips(True, 10_000) is None
    assert any(
        _trips(True, max_steps) != _trips(False, max_steps)
        for max_steps in _step_limit_window()
    )


# -- what CPython compiles ---------------------------------------------------------


def _nest(depth, opener, pragma=""):
    lines = ["global g: int[2];", "func main() {", pragma]
    lines += [opener % level for level in range(depth)]
    lines.append("g[0] = g[0] + 1;")
    lines += ["}"] * depth
    lines.append('print("g", g[0]); }')
    return "\n".join(lines)


FOR_OPENER = "for i%d in 0..1 {"
IF_OPENER = "if (g[1] + %d >= 0) {"
TOO_DEEP = "nested deeper than CPython compiles"


@pytest.mark.parametrize("source", [
    _nest(21, FOR_OPENER), _nest(101, IF_OPENER),
], ids=["21-loops", "101-ifs"])
def test_a_nest_deeper_than_cpython_compiles_runs_interpreted(source):
    """As a block-dispatch machine these compiled (nothing nested); as
    Python loops ``compile()`` would raise a SyntaxError nobody catches,
    so the walk refuses first — sequence and profile alike."""
    session = Session.from_source(source, name="deep")
    execution = session.execution
    stats = session.diagnostics.stats("profile")
    assert stats["engine"] == "interpreted"
    assert stats["refused"].endswith(": " + TOO_DEEP)
    result = session.run("source", backend="threads", compile_regions=True)
    assert result.sequence_stats == {"compiled": 0, "interpreted": 1}
    reference = run_module(compile_source(source))
    for run in (execution, result):
        assert (run.output, run.steps) == (reference.output, reference.steps)


def test_a_chunk_body_nested_too_deep_is_refused_with_its_block(unarmed):
    source = _nest(21, FOR_OPENER, "pragma omp parallel_for")
    session = Session.from_source(source, name="deep-chunk")
    (tier,) = session.compiled_regions["tiers"].values()
    kind, why = tier
    assert kind == "refused" and why.endswith(": " + TOO_DEEP)
    # The sequence around it is one stop: it compiles, the chunks do not.
    result = session.run("PS-PDG", backend="threads", compile_regions=True)
    assert result.sequence_stats == {"compiled": 1, "interpreted": 0}
    assert sum(r["compiled_chunks"] for r in result.parallel_regions) == 0
    assert result.output == session.execution.output


def _deep_region(depth):
    """A ``parallel_for`` whose body nests ``depth`` ``if``s."""
    lines = ["global a: int[8];", "global g: int[2];", "func main() {",
             "pragma omp parallel_for", "for i in 0..8 {"]
    lines += [IF_OPENER % level for level in range(depth)]
    lines.append("a[i] = a[i] + i;")
    lines += ["}"] * (depth + 1)
    lines.append('print("a", a[0] + a[7]); }')
    return "\n".join(lines)


@pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
def test_a_region_nested_too_deep_to_pickle_runs(backend, unarmed):
    """101 ``if``s chain more blocks than the pickler recurses.  Nothing
    on the compile path pickles the module; ``processes``, whose wire
    must, runs the region on ``threads`` and says why."""
    source = _deep_region(101)
    session = Session.from_source(source, name="deep-region")
    result = session.run("PS-PDG", backend=backend, compile_regions=True)
    assert result.output == run_module(compile_source(source)).output
    ((kind, why),) = session.compiled_regions["tiers"].values()
    assert kind == "refused" and why.endswith(": " + TOO_DEEP)
    assert result.sequence_stats == {"compiled": 1, "interpreted": 0}
    (region,) = result.parallel_regions
    if backend == "processes" and not _pickles(session.module):
        backend = "processes->threads(unpicklable)"
    assert region["backend"] == backend


def test_a_region_nested_too_deep_to_pickle_calibrates(unarmed):
    """Calibration keys its feedback by the printed IR, not by the
    wire's pickle, so a calibrated ``threads`` run of a module the
    pickler cannot walk runs, twice, under one stable key."""
    source = _deep_region(101)
    reference = run_module(compile_source(source)).output
    session = Session.from_source(source, name="deep-region", calibrate=True)
    for _ in range(2):
        result = session.run("PS-PDG", backend="threads")
        assert result.output == reference
    fresh = Session.from_source(source, name="deep-region")
    assert session.program_key() == fresh.program_key()


def _pickles(module):
    """CPython 3.13 pickles the 101-deep chain; 3.10-3.12 run out of
    recursion."""
    try:
        pickle.dumps(module)
    except RecursionError:
        return False
    return True


def test_a_twelve_deep_nest_still_compiles(unarmed):
    for pragma in ("", "pragma omp parallel_for"):
        session = Session.from_source(
            _nest(12, FOR_OPENER, pragma), name="twelve"
        )
        session.execution
        assert session.diagnostics.stats("profile")["engine"] == "compiled"
        result = session.run(
            "PS-PDG", backend="threads", compile_regions=True
        )
        assert result.sequence_stats == {"compiled": 1, "interpreted": 0}
        assert sum(
            r["interpreted_chunks"] for r in result.parallel_regions
        ) == 0
        assert result.output == session.execution.output


# -- byte-stable source --------------------------------------------------------------

_LOWER_EVERYTHING = """
import hashlib
from repro.codegen.lower import Unsupported, lower_chunk
from repro.codegen.seq import _ProfiledLowering, lower_sequence, sequence_stops
from repro.session import Session
from repro.workloads.nas import KERNELS
from support.programs import dense_source, histogram_source

def show(label, lower):
    try:
        source = lower()
    except Unsupported as refusal:
        print(label, f"refused: {refusal}", sep="\t")
    else:
        print(label, hashlib.sha256(source.encode()).hexdigest(), sep="\t")

programs = [(kernel, KERNELS[kernel].SOURCE) for kernel in sorted(KERNELS)]
programs += [("dense96", dense_source(96)), ("histogram", histogram_source())]
for name, text in programs:
    for level in range(4):
        session = Session.from_source(text, name=name, opt_level=level)
        regions = {
            r.loops[0].header: r for r in session.region_recipes["PS-PDG"]
        }
        for function in session.module.functions.values():
            analyses = session.analyses.of(function)
            stops = sequence_stops(regions, function)
            at = f"{name} -O{level} @{function.name}"
            show(f"{at} sequence",
                 lambda: lower_sequence(analyses, stops)[0])
            show(f"{at} profiled",
                 lambda: _ProfiledLowering(analyses).lower())
        analyses = session.analyses
        forest = analyses.loops_by_header
        for region in regions.values():
            for header in region.headers:
                show(f"{name} -O{level} chunk {header}",
                     lambda: lower_chunk(analyses, forest[header])[0])
"""

#: Label -> sha256 of the source the lowering generates for it (or the
#: refusal), over every sequence, profile and chunk body of the NAS
#: kernels, ``dense96`` (whose compute loops run as slices) and the
#: histogram example at ``-O0`` .. ``-O3``.  A change that moves any
#: generated text shows here; regenerate it only on purpose.
GOLDEN_SOURCES = pathlib.Path(__file__).with_name("golden_sources.json")


def _lower_everything(seed):
    """``{label: digest}`` of one run of :data:`_LOWER_EVERYTHING`."""
    import os
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[2]
    path = os.pathsep.join(str(root / part) for part in ("src", "tests"))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    lines = subprocess.run(
        [sys.executable, "-c", _LOWER_EVERYTHING], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    digests = dict(line.split("\t") for line in lines)
    assert len(digests) == len(lines), "a label was lowered twice"
    return digests


def test_generated_source_is_byte_identical_across_hash_seeds():
    """Lowering the same IR twice gives the same text, whatever the hash
    seed — a pool child lowers what the parent lowered, and the census
    reads the same bodies every run — and the text the golden file
    pins."""
    import json

    runs = [_lower_everything(seed) for seed in ("1", "2")]
    assert runs[0] == runs[1]
    golden = json.loads(GOLDEN_SOURCES.read_text())
    changed = sorted(
        label for label in golden.keys() | runs[0].keys()
        if golden.get(label) != runs[0].get(label)
    )
    assert not changed, "generated source changed: " + ", ".join(changed)
