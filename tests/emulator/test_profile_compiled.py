"""The compiled profile against the interpreter's reference profile.

The pipeline's loop-nest profile comes out of an instrumented compiled
body that interns shapes as it runs (``repro.codegen.profile``); the
interpreter with its ``Profiler`` is the reference.  The two must
agree on the whole DAG, the output, the step count, the per-header
totals and the final globals — and the comparison must have teeth: a
seeded defect in any one piece of the instrumentation has to fail it.
"""

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.codegen import cache as codegen_cache
from repro.codegen import runtime as codegen_runtime
from repro.codegen.profile import _CompiledCallees, _interpret, _run, \
    profile_function
from repro.codegen.seq import _ProfiledLowering, _SequenceLowering, \
    compile_profiled
from repro.emulator.interp import Interpreter, _Frame, run_module
from repro.emulator.profile import Profiler, ShapeTable, close_instance
from repro.frontend import compile_source
from repro.ir import instructions as insts
from repro.util.errors import EmulationError
from repro.workloads import PAIRS, build_kernel
from repro.workloads.nas import KERNELS
from support.ir_parser import parse_ir
from support.profile_shapes import expanded_shape
from support.progen import generate_nest_program, generate_program
from support.programs import EARLY_RETURNS, REFUSED_CFGS, dense_source

def check_same_profile(module, function_name="main"):
    """Both engines, every observable; returns the compiled result."""
    analyses = FunctionAnalyses(module.function(function_name), module)
    compiled_interp, compiled = _run(
        compile_profiled(analyses), analyses, ShapeTable()
    )
    reference_interp, reference = _interpret(analyses)
    assert compiled.profile.engine == "compiled"
    assert reference.profile.engine == "interpreted"
    assert expanded_shape(compiled.profile.shapes()) == expanded_shape(
        reference.profile.shapes()
    )
    assert compiled.output == reference.output
    assert compiled.steps == reference.steps == compiled.profile.total()
    assert compiled.return_value == reference.return_value
    assert (
        compiled.profile.header_totals()
        == reference.profile.header_totals()
    )
    assert compiled_interp._global_storage == reference_interp._global_storage
    return compiled


# -- the programs ---------------------------------------------------------------

CALLEE_WITH_LOOPS = """
global a: int[6];
func weigh(x: int) -> int {
  var s: int = 0;
  for k in 0..x { s = s + k; }
  return s;
}
func main() {
  for i in 0..6 { a[i] = weigh(i) + weigh(2); }
  print("a5", a[5]);
}
"""

WHILE_LOOPS = """
func main() {
  var i: int = 0;
  var total: int = 0;
  while (i < 5) {
    var j: int = i;
    while (j > 0) { total = total + j; j = j - 1; }
    i = i + 1;
  }
  print("total", total);
}
"""

ZERO_TRIP = """
global a: int[4];
func main() {
  for i in 0..0 { a[i] = 1; }
  for j in 0..3 {
    for k in j..2 { a[k] = a[k] + j; }
  }
  print("a", a[0], a[1]);
}
"""

TWO_LEVEL_EXIT = """
global a: int[8];
func main() {
  var i: int = 0;
  while (i < 4) {
    for j in 0..4 {
      if (i * 4 + j == 9) { print("out", i, j); return; }
      a[j] = a[j] + i;
    }
    i = i + 1;
  }
  print("never");
}
"""

TRIPLE_NEST = """
global g: int[27];
func main() {
  for i in 0..3 {
    for j in 0..3 {
      if (j != i) {
        for k in 0..3 { g[(i * 3 + j) * 3 + k] = i + j + k; }
      }
    }
  }
  print("g", g[5], g[26]);
}
"""

# Counted loops whose body is one straight segment (no ``if``, no call,
# no nested loop) record each instance whole; the rest count per
# iteration.

STRAIGHT_ZERO_TRIP = """
global a: int[4];
global n: int[1];
func main() {
  for r in 0..3 {
    for i in 0..n[0] { a[i] = a[i] + r; }
    print("a", a[0]);
  }
}
"""

TRIANGULAR = """
global a: int[8];
func main() {
  for i in 0..8 {
    for j in 0..i { a[j] = a[j] + i; }
    for k in i..8 { a[k] = a[k] * 2 - k; }
  }
  print("a", a[0], a[7]);
}
"""

GLOBAL_BOUND = """
global a: int[16];
global n: int[1];
func main() {
  n[0] = 5;
  for i in 0..n[0] { a[i] = i * 3; }
  n[0] = n[0] + 6;
  for i in 2..n[0] { a[i] = a[i] + a[i - 1]; }
  print("a", a[4], a[10]);
}
"""

ARGUMENT_BOUND = """
global a: int[16];
func fill(n: int) -> int {
  var s: int = 0;
  for i in 0..n { a[i] = i + 1; }
  for j in 1..n { s = s + a[j] * a[j - 1]; }
  return s;
}
func main() { print("s", fill(5)); }
"""

CALL_IN_BODY = """
global a: int[6];
func twice(x: int) -> int { return x + x; }
func main() {
  for i in 0..6 { a[i] = twice(i); }
  print("a", a[5]);
}
"""

IF_IN_BODY = """
global a: int[6];
func main() {
  for i in 0..6 {
    a[i] = i;
    if (i > 2) { a[i] = a[i] * 2; }
  }
  print("a", a[5]);
}
"""

HAND_WRITTEN = {
    "callee-with-loops": CALLEE_WITH_LOOPS,
    "while-loops": WHILE_LOOPS,
    "zero-trip": ZERO_TRIP,
    "two-level-exit": TWO_LEVEL_EXIT,
    "triple-nest": TRIPLE_NEST,
    "straight-zero-trip": STRAIGHT_ZERO_TRIP,
    "triangular": TRIANGULAR,
    "global-bound": GLOBAL_BOUND,
    "argument-bound": ARGUMENT_BOUND,
    "call-in-body": CALL_IN_BODY,
    "if-in-body": IF_IN_BODY,
    # Returns from inside loops: an arm with its own loop, a return
    # beside a (here unplanned) region loop, both arms, a ladder.
    **{f"return-{name}": source for name, source in EARLY_RETURNS.items()},
}


def _progen():
    for seed in range(40):
        yield f"program-{seed}", generate_program(seed)
        yield f"nest-{seed}", generate_nest_program(seed)


GALLERY = {
    f"{pair.key}-{label}": source
    for pair in PAIRS for label, source in pair.sources().items()
}


def _scopes(source, function_name="main"):
    """The profiled lowering's scopes of ``function_name``, by header."""
    module = compile_source(source)
    lowering = _ProfiledLowering(
        FunctionAnalyses(module.function(function_name), module)
    )
    lowering.lower()
    return {
        loop.header.name: scope
        for loop, scope in lowering._scopes.items() if loop is not None
    }


# -- equivalence ------------------------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels(kernel):
    check_same_profile(build_kernel(kernel))


@pytest.mark.parametrize("n", (8, 48, 96))
def test_dense(n):
    check_same_profile(compile_source(dense_source(n)))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery(name):
    check_same_profile(compile_source(GALLERY[name]))


@pytest.mark.parametrize("name,source", list(_progen()))
def test_generated_programs(name, source):
    check_same_profile(compile_source(source))


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written(name):
    check_same_profile(compile_source(HAND_WRITTEN[name]))


def test_every_function_of_the_early_returns_profiles_compiled():
    """The returns sit in callees too: profile each as the root."""
    for name in ("both-arms-return", "ladder-of-6"):
        module = compile_source(EARLY_RETURNS[name])
        for function in module.functions.values():
            check_same_profile(module, function.name)


@pytest.mark.parametrize("name", sorted(REFUSED_CFGS))
def test_a_cfg_the_walk_refuses_is_profiled_by_the_interpreter(name):
    text, why = REFUSED_CFGS[name]
    module = parse_ir(text)
    analyses = FunctionAnalyses(module.function("main"), module)
    reference = run_module(parse_ir(text), profile=True)
    for verify in (False, True):
        result = profile_function(analyses, verify=verify)
        assert result.profile.engine == "interpreted"
        assert result.profile.refused == why
        assert (result.output, result.steps, result.return_value) == (
            reference.output, reference.steps, reference.return_value
        )
        assert expanded_shape(result.profile.shapes()) == expanded_shape(
            reference.profile.shapes()
        )


def test_callee_steps_land_on_the_call_uid():
    module = compile_source(CALLEE_WITH_LOOPS)
    result = check_same_profile(module)
    calls = [
        inst for inst in module.function("main").instructions()
        if isinstance(inst, insts.Call)
    ]
    assert len(calls) == 2
    (loop,) = result.profile.shapes().children
    by_call = {call.uid: set() for call in calls}
    for iteration, _mult in loop.iterations:
        for call in calls:
            if call.uid in iteration.counts:
                by_call[call.uid].add(iteration.counts[call.uid])
    # weigh(2) costs the same every iteration; weigh(i) grows with i.
    varying, constant = (by_call[call.uid] for call in calls)
    assert len(constant) == 1 and len(varying) == 6
    assert min(varying) > 1  # the call itself plus the callee's steps
    # Nothing of the callee's own loops shows in main's profile.
    assert loop.headers == {"for.header"}


def test_the_callees_of_the_profile_run_compile():
    """``weigh`` lowers once and serves all 12 calls compiled; a callee
    that fell back would count a fallback instead."""
    codegen_cache.reset()
    check_same_profile(compile_source(CALLEE_WITH_LOOPS))
    stats = codegen_cache.stats()
    assert (stats["compiles"], stats["hits"], stats["fallbacks"]) == (1, 11, 0)


def test_two_level_exit_closes_both_loops_on_one_edge():
    result = check_same_profile(compile_source(TWO_LEVEL_EXIT))
    (outer,) = result.profile.shapes().children
    assert outer.header_name == "while.header"
    assert outer.trip_count == 3  # i = 0, 1, and the one cut short
    assert result.output == [("out", (2, 1))]


def test_zero_trip_loop_is_one_header_evaluation():
    result = check_same_profile(compile_source(ZERO_TRIP))
    first = result.profile.shapes().children[0]
    assert first.trip_count == 1 and not first.iterations[0][0].children


def test_a_straight_counted_loop_is_recorded_once_per_instance():
    """Its exit interns ``{full shape: trip, exit shape: 1}``; nothing
    of it is counted or interned per iteration."""
    scopes = _scopes(TRIANGULAR)
    assert [scope.induction is not None for scope in scopes.values()] == [
        False, True, True,
    ]
    for scope in scopes.values():
        if scope.induction:
            assert not scope.counters and not scope.nested
    module = compile_source(TRIANGULAR)
    source = compile_profiled(
        FunctionAnalyses(module.function("main"), module)
    ).source
    assert source.count("_k = ") == 1  # the outer loop's iterations only
    result = check_same_profile(compile_source(TRIANGULAR))
    (outer,) = result.profile.shapes().children
    trips = sorted(
        (child.header_name, child.trip_count)
        for iteration, _mult in outer.iterations
        for child in iteration.children
    )
    # j runs i times and k 8 - i: one exit iteration each on top.
    assert trips == sorted(
        [("for.header.1", i + 1) for i in range(8)]
        + [("for.header.2", 9 - i) for i in range(8)]
    )


def test_a_zero_trip_straight_loop_records_its_exit_shape_alone():
    result = check_same_profile(compile_source(STRAIGHT_ZERO_TRIP))
    (outer,) = result.profile.shapes().children
    ((iteration, mult), _exit) = outer.iterations
    (inner,) = iteration.children
    assert mult == 3 and inner.trip_count == 1
    ((shape, once),) = inner.iterations
    assert once == 1 and sum(shape.counts.values()) == 3  # the header


@pytest.mark.parametrize("source", [CALL_IN_BODY, IF_IN_BODY])
def test_a_call_or_an_if_keeps_per_iteration_records(source):
    (scope,) = _scopes(source).values()
    assert scope.induction is None and scope.counters
    check_same_profile(compile_source(source))


def test_only_a_block_an_iteration_may_skip_has_a_counter():
    """The body's blocks on every path to the latch run once per full
    iteration like its header and latch; an arm's block does not."""
    (scope,) = _scopes(IF_IN_BODY).values()
    assert len(scope.counters) == 1 and not scope.nested
    # An arm that returns cuts an iteration short wherever it leaves:
    # every block of that loop's body keeps its counter.
    scopes = _scopes(EARLY_RETURNS["arm-with-its-own-loop"])
    outer, inner = scopes["for.header"], scopes["for.header.1"]
    assert len(outer.counters) == 2 and outer.cut is not None
    assert len(inner.counters) == 2 and inner.cut is not None


def test_a_counted_loop_bounded_by_an_argument():
    """``fill`` profiled as the root, called with several bounds."""
    module = compile_source(ARGUMENT_BOUND)
    analyses = FunctionAnalyses(module.function("fill"), module)
    function, loops = analyses.function, analyses.loops
    assert all(scope.induction for scope in _scopes(
        ARGUMENT_BOUND, "fill"
    ).values())
    entry = compile_profiled(analyses)
    for n in (0, 1, 5, 16):
        interpreter = _CompiledCallees(analyses)
        value, root, totals = entry.fn(
            interpreter, _Frame(function, [n]), ShapeTable()
        )
        reference = Interpreter(module).run(
            "fill", [n], Profiler("fill"), loops
        )
        assert expanded_shape(root) == expanded_shape(
            reference.profile.shapes()
        )
        assert totals == reference.profile.header_totals()
        assert (value, interpreter.steps) == (
            reference.return_value, reference.steps
        )


@pytest.mark.parametrize("source,message,max_steps", [
    (
        "global a: int[4];\n"
        "func main() { for i in 0..9 { a[i] = i; } }",
        "index 4 out of bounds",
        None,
    ),
    (
        "func main() { var z: int = 3;\n"
        "  for i in 0..5 { print(10 / (z - i)); } }",
        "integer division by zero",
        None,
    ),
    (
        "func f(x: int) -> int { return 8 / x; }\n"
        "func main() { for i in 0..3 { print(f(2 - i)); } }",
        "integer division by zero",
        None,
    ),
    (
        # Charged once: the compiled body raises before the loop runs,
        # the interpreter at step 1001 of it, with one message.
        "global a: int[4];\n"
        "func main() { for i in 0..5000 { a[1] = a[1] + i; } }",
        "exceeded max_steps=1000; infinite loop",
        1000,
    ),
])
def test_errors_mid_run_are_the_interpreters(
    source, message, max_steps, monkeypatch
):
    if max_steps is not None:
        defaults = list(Interpreter.__init__.__defaults__)
        defaults[0] = max_steps
        monkeypatch.setattr(
            Interpreter.__init__, "__defaults__", tuple(defaults)
        )
    module = compile_source(source)
    analyses = FunctionAnalyses(module.function("main"), module)
    with pytest.raises(EmulationError, match=message) as reference:
        run_module(module, profile=True)
    for verify in (False, True):
        with pytest.raises(EmulationError) as compiled:
            profile_function(analyses, verify=verify)
        assert str(compiled.value) == str(reference.value)
        assert type(compiled.value) is type(reference.value)


# -- teeth: seeded defects in the instrumentation --------------------------------

TEETH_PROGRAMS = (
    CALLEE_WITH_LOOPS, WHILE_LOOPS, ZERO_TRIP, TWO_LEVEL_EXIT, TRIPLE_NEST,
    TRIANGULAR, CALL_IN_BODY, IF_IN_BODY,
)


def _drop_one_block_counter(monkeypatch):
    real = _ProfiledLowering._lower_block

    def mutant(self, out, block):
        before = len(out.lines)
        terminator = real(self, out, block)
        counter = out.lines[before:before + 1]
        if self._innermost.get(block) and counter and counter[0].lstrip(
        ).startswith("_n"):
            del out.lines[before]
            if self._segment is not None and self._segment[0] > before:
                self._segment[0] -= 1
        return terminator

    monkeypatch.setattr(_ProfiledLowering, "_lower_block", mutant)


def _skip_an_exit_event(monkeypatch):
    real = _ProfiledLowering._exit_loop

    def mutant(self, out, loop, returning=False):
        if loop.parent is None:
            real(self, out, loop, returning)

    monkeypatch.setattr(_ProfiledLowering, "_exit_loop", mutant)


def _enter_as_next_iteration(monkeypatch):
    # A second activation keeps filling the first one's multiset, or
    # counts its trips from the first one's start.
    real_prologue = _ProfiledLowering._prologue
    real_enter = _ProfiledLowering._enter_loop

    def prologue(self, out):
        real_prologue(self, out)
        for scope in self._scopes.values():
            out.emit(f"_m{scope.name} = {{}}")
            out.emit(f"_b{scope.name} = None")

    def enter(self, out, loop, scalar):
        real_enter(self, out, loop, scalar)
        line = out.lines.pop()
        if line.lstrip().startswith("_b"):
            out.emit(f"if _b{self._scopes[loop].name} is None:")
            out.emit("    " + line.lstrip())

    monkeypatch.setattr(_ProfiledLowering, "_prologue", prologue)
    monkeypatch.setattr(_ProfiledLowering, "_enter_loop", enter)


def _lose_call_attribution(monkeypatch):
    monkeypatch.setattr(
        _ProfiledLowering, "lower_instruction",
        _SequenceLowering.lower_instruction,
    )


def _keep_counters_across_iterations(monkeypatch):
    real = _ProfiledLowering._close_iteration

    def mutant(self, out, loop):
        before = len(out.lines)
        real(self, out, loop)
        zeroing = [
            position for position in range(before, len(out.lines))
            if out.lines[position].rstrip().endswith("= 0")
        ]
        assert len(zeroing) <= 1
        if zeroing:
            del out.lines[zeroing[0]]

    monkeypatch.setattr(_ProfiledLowering, "_close_iteration", mutant)


def _exit_one_level_too_few(monkeypatch):
    real = _ProfiledLowering._leave

    def mutant(self, out, region):
        # An arm that leaves two levels never closes the second.
        if region is not None:
            self._exit_loop(out, region, True)
            if region.parent is not None:
                real(self, out, region.parent.parent)

    monkeypatch.setattr(_ProfiledLowering, "_leave", mutant)


def _drop_the_iterate_event(monkeypatch):
    """The bottom of a loop body no longer closes the iteration: every
    pass of an instance piles into its last one."""
    real = _ProfiledLowering._close_iteration
    exits = _ProfiledLowering._exit_loop

    def only_on_exit(self, out, loop, returning=False):
        self._closing = True
        exits(self, out, loop, returning)
        self._closing = False

    def mutant(self, out, loop):
        if getattr(self, "_closing", False):
            real(self, out, loop)

    monkeypatch.setattr(_ProfiledLowering, "_exit_loop", only_on_exit)
    monkeypatch.setattr(_ProfiledLowering, "_close_iteration", mutant)


def _drop_the_exit_shape(monkeypatch):
    """A loop recorded whole forgets its last header test."""

    def mutant(table, totals, header_name, full, last, trips):
        multiplicity = {full: trips} if trips else {last: 1}
        return close_instance(table, totals, header_name, multiplicity)

    monkeypatch.setattr(codegen_runtime, "close_straight", mutant)


def _one_full_iteration_too_few(monkeypatch):
    real = _ProfiledLowering._exit_loop

    def mutant(self, out, loop, returning=False):
        real(self, out, loop, returning)
        scope = self._scopes[loop]
        if scope.induction:
            line = out.lines[-1]
            out.lines[-1] = line.replace(
                f"- _b{scope.name})", f"- _b{scope.name} - 1)"
            )
            assert out.lines[-1] != line

    monkeypatch.setattr(_ProfiledLowering, "_exit_loop", mutant)


MUTATIONS = {
    "drop-one-block-counter": _drop_one_block_counter,
    "skip-an-exit-event": _skip_an_exit_event,
    "enter-as-next-iteration": _enter_as_next_iteration,
    "lose-call-attribution": _lose_call_attribution,
    "keep-counters-across-iterations": _keep_counters_across_iterations,
    "exit-one-level-too-few": _exit_one_level_too_few,
    "drop-the-iterate-event": _drop_the_iterate_event,
    "drop-the-exit-shape": _drop_the_exit_shape,
    "one-full-iteration-too-few": _one_full_iteration_too_few,
}


def _suite_fails():
    failures = 0
    for source in TEETH_PROGRAMS:
        try:
            check_same_profile(compile_source(source))
        except Exception:
            failures += 1
    return failures


def test_the_unmutated_instrumentation_passes_the_teeth_suite():
    assert _suite_fails() == 0


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_seeded_defect_fails_the_comparison(name, monkeypatch):
    MUTATIONS[name](monkeypatch)
    assert _suite_fails() > 0


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_compiled_catches_the_same_defects(name, monkeypatch):
    """The production cross-check (``verify=True``) has the same teeth."""
    MUTATIONS[name](monkeypatch)
    caught = 0
    for source in TEETH_PROGRAMS:
        module = compile_source(source)
        try:
            profile_function(
                FunctionAnalyses(module.function("main"), module),
                verify=True,
            )
        except EmulationError as error:
            assert "VERIFY_COMPILED divergence at @main" in str(error)
            caught += 1
    assert caught > 0
