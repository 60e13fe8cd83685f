"""The structured chunk lowering against ``run_chunk``, engine by engine.

Every chunk a backend dispatches here is run three times from the same
state — the logged compiled body, the unlogged compiled body, and
``_WorkerInterpreter.run_chunk`` — and what each leaves behind is
compared: steps, output, error text, every ``frame.objects`` slot and
global, and (logged against interpreted) the write log's marks with
their before-values.  The interpreter's run is the one whose effects
stay, so a whole program still ends with the right answer.

The corpus is dense-shaped nests (the benchmark's template), every nas8
region loop, and ``progen``'s body nests (rectangular, triangular,
zero-trip, reversed-index, accumulator, ``while``, ``if``/``else``,
three-deep); hand-written IR covers what the frontend cannot produce.
"""

import dataclasses
import pathlib

import pytest

from repro.analysis.loops import find_natural_loops
from repro.codegen import cache as codegen_cache
from repro.codegen import runtime as codegen_runtime
from repro.codegen.lower import compile_chunk
from repro.codegen.runtime import Bailout
from repro.emulator.interp import _Frame, run_module
from repro.frontend import compile_source
from repro.ir.loopinfo import CanonicalLoop
from repro.ir.parser import parse_ir
from repro.ir.values import Constant
from repro.ir.types import INT
from repro.runtime import knobs
from repro.runtime.backends import (
    SerialBackend, _NullLocks, _WorkerInterpreter,
)
from repro.runtime.executor import run_plan, run_source_plan
from repro.session import Session
from repro.util.errors import EmulationError
from repro.workloads.nas import KERNELS
from support.conformance import outputs_close
from support.progen import generate_body_nest_program

DENSE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "programs" / "dense.mop.in"
)


def dense_source(n):
    text = DENSE.read_text()
    for key, value in (("N", n), ("M", n - 1), ("H", n // 2)):
        text = text.replace(f"@{key}@", str(value))
    return text


# -- the three-engine differential ----------------------------------------------


@dataclasses.dataclass
class Observation:
    """What one engine left behind for one chunk."""

    error: str  # None, "Bailout", or the EmulationError's text
    steps: int
    output: list
    slots: dict  # storage label -> contents
    log: dict  # (label, slot) -> (before, after); None when unlogged


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


def _observe(engine, shim, frame, logged):
    shim.write_log = {} if logged else None
    step_mark, out_mark = shim.steps, len(shim.output)
    error = None
    try:
        engine()
    except Bailout:
        error = "Bailout"
    except EmulationError as raised:
        error = str(raised)
    storages = _storages(shim, frame)
    names = {id(storage): label for label, storage in storages.items()}
    log = None
    if logged:
        log = {
            (names.get(key[0], key[0]), key[1]): (before, storage[key[1]])
            for key, (storage, before) in shim.write_log.items()
        }
    return Observation(
        error, shim.steps - step_mark, shim.output[out_mark:],
        {label: list(storage) for label, storage in storages.items()},
        log,
    )


def differential(loop, shim, frame, iterations, outer=None):
    """Run the chunk on all three engines from one state.

    Returns engine name -> :class:`Observation`; the interpreter runs
    last, so its effects are what the caller's state holds afterwards.
    """
    reachable = list(_storages(shim, frame).values()) + [
        value[0] for value in frame.registers.values()
        if type(value) is tuple
    ]
    saved = [(storage, list(storage)) for storage in reachable]
    objects, registers = dict(frame.objects), dict(frame.registers)
    steps, out_mark, real_log = shim.steps, len(shim.output), shim.write_log

    def compiled(logged):
        entry = codegen_cache.compiled_chunk(
            shim.module, loop, logged, outer=outer
        )
        assert entry is not None, "the lowering refused the loop"
        return lambda: entry.fn(shim, frame, iterations)

    engines = (
        ("logged", compiled(True), True),
        ("plain", compiled(False), False),
        ("interpreted", lambda: shim.run_chunk(
            loop, frame, iterations, _NullLocks(), outer=outer), True),
    )
    seen = {}
    for name, engine, logged in engines:
        for storage, contents in saved:
            storage[:] = contents
        for table, before in (
            (frame.objects, objects), (frame.registers, registers)
        ):
            table.clear()
            table.update(before)
        shim.steps = steps
        del shim.output[out_mark:]
        seen[name] = _observe(engine, shim, frame, logged)
    if real_log is not None:
        for key, mark in shim.write_log.items():
            real_log.setdefault(key, mark)
    shim.write_log = real_log
    return seen


def assert_engines_agree(seen, label):
    reference = seen["interpreted"]
    for name in ("logged", "plain"):
        got = seen[name]
        if got.error == "Bailout":
            continue  # nothing ran: the interpreter is the chunk
        assert got.error == reference.error, (label, name)
        assert got.output == reference.output, (label, name)
        if reference.error is not None:
            continue  # steps are batched per segment: only the text pins
        assert got.steps == reference.steps, (label, name)
        assert got.slots == reference.slots, (label, name)
        if got.log is not None:
            assert got.log == reference.log, (label, name)


@pytest.fixture
def chunks(monkeypatch):
    """Send every dispatched chunk through :func:`differential`.

    Yields the list of ``(label, tier, {engine: error})`` it fills.
    """
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    knobs.refresh()
    ran = []

    def execute(entry, shim, loop, frame, iterations, locks,
                verify=False, outer=None):
        if entry is None:
            shim.run_chunk(loop, frame, iterations, locks, outer=outer)
            return "interpreted"
        seen = differential(loop, shim, frame, iterations, outer)
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
    knobs.refresh()


def _all_compiled(ran):
    """Every chunk ran both compiled bodies to the end, structured."""
    assert ran
    for label, tier, errors in ran:
        assert tier == ("structured", None), label
        assert errors == {
            "logged": None, "plain": None, "interpreted": None
        }, label


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
        function = compile_source(
            generate_body_nest_program(seed)
        ).function("main")
        for loop in find_natural_loops(function):
            if loop.canonical and loop.depth == 0 and loop.children:
                sources.append(compile_chunk(loop, logged=False).source)
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


@pytest.mark.parametrize("source", [
    # The index leaves the array only at the outer extreme / only at
    # the inner extreme, outside every ``if``: the proof covers both.
    OOB.replace("if (%(taken)s) {", "a[i + 1][j] = 0; if (%(taken)s) {")
    % dict(outer=8, inner=8, taken="true", row=0, column=0, tail=""),
    OOB.replace("if (%(taken)s) {", "a[i][j + 1] = 0; if (%(taken)s) {")
    % dict(outer=8, inner=8, taken="true", row=0, column=0, tail=""),
], ids=["outer-extreme", "inner-extreme"])
def test_a_failed_proof_bails_out_before_any_effect(source, chunks):
    with pytest.raises(EmulationError) as interpreted:
        run_module(compile_source(source))
    with pytest.raises(EmulationError) as dispatched:
        run_source_plan(
            compile_source(source), backend=SerialBackend(), workers=2,
        )
    # The interpreter raised it: its message, at its iteration.
    assert str(dispatched.value) == str(interpreted.value)
    assert "out of bounds" in str(dispatched.value)
    failing = [errors for _label, _tier, errors in chunks
               if errors["interpreted"]]
    assert failing and all(
        errors["logged"] == errors["plain"] == "Bailout"
        for errors in failing
    )


def test_an_index_out_of_bounds_on_an_untaken_arm_does_not_bail(chunks):
    """That guard is not in the proof: it stays inline and never fires."""
    source = _oob(taken="i > 100", row=5, tail="a[i][0] = a[i][0] + 1;")
    module = compile_source(source)
    result = run_source_plan(module, backend=SerialBackend(), workers=2)
    assert result.output == run_module(compile_source(source)).output
    _all_compiled(chunks)
    loop = [lp for lp in find_natural_loops(module.function("main"))
            if lp.canonical and lp.depth == 0][0]
    body = compile_chunk(loop, logged=False).source
    assert body.count("out of bounds for") == 4  # two geps in each arm
    proof = body.partition("if not (")[2].partition("):")[0]
    assert proof.count("<") == 2  # a[i][0], outside the ``if``: proven once


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
    assert errors["logged"] == errors["plain"] == errors["interpreted"]
    assert "index 8 out of bounds" in errors["plain"]


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


def test_the_proof_runs_once_per_chunk_not_per_iteration():
    module = compile_source(dense_source(8))
    for loop in find_natural_loops(module.function("main")):
        if not (loop.canonical and loop.depth == 0 and loop.children):
            continue
        for logged in (True, False):
            source = compile_chunk(loop, logged=logged).source
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
    loop = [lp for lp in find_natural_loops(function)
            if lp.header.name == "header"][0]
    return module, loop


def _ir_chunk(text, iterations):
    """The three engines over a hand-built worker frame."""
    module, loop = _ir_loop(text)
    function = module.function("main")
    shim = _WorkerInterpreter(
        module,
        {g.name: [0] * g.value_type.slots() for g in module.globals.values()},
        max_steps=10_000,
    )
    frame = _Frame(function, [])
    induction = loop.canonical.induction
    storage = frame.objects[induction] = [0]
    frame.registers[induction] = (storage, 0)
    seen = differential(loop, shim, frame, iterations)
    assert_engines_agree(seen, "main:header")
    assert {obs.error for obs in seen.values()} == {None}
    entry = codegen_cache.compiled_chunk(module, loop, logged=True)
    return entry, seen


def test_an_alloca_whose_address_reaches_a_call_is_not_promoted():
    entry, seen = _ir_chunk(ESCAPE, range(2, 6))
    assert entry.tier == ("structured", None)
    # %8 lives in a local; %6, handed to @poke, stays in its slot.
    assert "_p8 = 7" in entry.source
    assert "_p6" not in entry.source
    assert "_r6_s[_r6_o] = 5" in entry.source
    assert seen["interpreted"].slots["@a"] == [0, 0, 13, 13, 13, 13, 0, 0]
    assert seen["plain"].slots["%6"] == [6]
    assert seen["plain"].slots["%8"] == [7]


def test_a_load_used_after_its_loop_keeps_its_own_copy():
    """%12 is read after the counted loop that defines it: it must hold
    the last iteration's value, not the induction local's final one."""
    entry, seen = _ir_chunk(STALE, range(0, 8))
    assert entry.tier == ("structured", None)
    assert "in range(_p6, 3)" in entry.source
    assert "_r12 = _p6" in entry.source
    assert seen["interpreted"].slots["@a"] == [2] * 8


def test_a_loop_left_from_its_body_lowers_to_the_state_machine():
    entry, seen = _ir_chunk(TWO_EXITS, range(0, 8))
    kind, why = entry.tier
    assert kind == "state_machine"
    assert why == "inner: loop is left from a block other than its header"
    assert "_b = " in entry.source and "_iv[0] = _i" in entry.source
    assert "_p6" not in entry.source  # unpromoted
    assert entry.source.count("out of bounds for") == 1  # fully guarded
    assert seen["interpreted"].slots["@a"] == [
        0, 0, 1, 3, 6, 10, 15, 15
    ]


def test_refused_loops_name_the_block_and_instruction():
    from repro.codegen.lower import Unsupported, lower_chunk

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
        lower_chunk(loop, logged=True)
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
