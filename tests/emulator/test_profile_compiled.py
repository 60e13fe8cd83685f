"""The compiled profile against the interpreter's recorded tree.

The pipeline's loop-nest profile comes out of an instrumented compiled
body that interns shapes as it runs (``repro.codegen.profile``); the
interpreter with its tree ``Profiler`` is the reference.  The two must
agree on the whole DAG, the output, the step count, the per-header
totals and the final globals — and the comparison must have teeth: a
seeded defect in any one piece of the instrumentation has to fail it.
"""

import pytest

from repro.analysis.loops import find_natural_loops
from repro.codegen import cache as codegen_cache
from repro.codegen.profile import _interpret, _run, profile_function
from repro.codegen.seq import _ProfiledLowering, _SequenceLowering, \
    compile_profiled
from repro.emulator import run_module
from repro.emulator.profile import ShapeTable
from repro.frontend import compile_source
from repro.ir import instructions as insts
from repro.util.errors import EmulationError
from repro.workloads import build_kernel
from repro.workloads.nas import KERNELS
from support.ir_parser import parse_ir
from support.profile_shapes import canonical_tree, expanded_shape
from support.progen import generate_nest_program, generate_program
from support.programs import EARLY_RETURNS, REFUSED_CFGS, dense_source

def check_same_profile(module, function_name="main"):
    """Both engines, every observable; returns the compiled result."""
    function = module.function(function_name)
    loops = find_natural_loops(function)
    compiled_interp, compiled = _run(
        compile_profiled(function, loops), module, function, ShapeTable()
    )
    reference_interp, reference = _interpret(module, function, loops)
    assert compiled.profile.engine == "compiled"
    assert compiled.profile.root is None  # no tree was materialized
    assert expanded_shape(compiled.profile.shapes()) == canonical_tree(
        reference.profile.root
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

HAND_WRITTEN = {
    "callee-with-loops": CALLEE_WITH_LOOPS,
    "while-loops": WHILE_LOOPS,
    "zero-trip": ZERO_TRIP,
    "two-level-exit": TWO_LEVEL_EXIT,
    "triple-nest": TRIPLE_NEST,
    # Returns from inside loops: an arm with its own loop, a return
    # beside a (here unplanned) region loop, both arms, a ladder.
    **{f"return-{name}": source for name, source in EARLY_RETURNS.items()},
}


def _progen():
    for seed in range(24):
        yield f"program-{seed}", generate_program(seed)
        yield f"nest-{seed}", generate_nest_program(seed)


# -- equivalence ------------------------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels(kernel):
    check_same_profile(build_kernel(kernel))


@pytest.mark.parametrize("n", (8, 48))
def test_dense(n):
    check_same_profile(compile_source(dense_source(n)))


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
    function = module.function("main")
    loops = find_natural_loops(function)
    reference = run_module(parse_ir(text), profile=True)
    for verify in (False, True):
        result = profile_function(module, function, loops, verify=verify)
        assert result.profile.engine == "interpreted"
        assert result.profile.refused == why
        assert (result.output, result.steps, result.return_value) == (
            reference.output, reference.steps, reference.return_value
        )
        assert canonical_tree(result.profile.root) == canonical_tree(
            reference.profile.root
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


@pytest.mark.parametrize("source,message", [
    (
        "global a: int[4];\n"
        "func main() { for i in 0..9 { a[i] = i; } }",
        "index 4 out of bounds",
    ),
    (
        "func main() { var z: int = 3;\n"
        "  for i in 0..5 { print(10 / (z - i)); } }",
        "integer division by zero",
    ),
    (
        "func f(x: int) -> int { return 8 / x; }\n"
        "func main() { for i in 0..3 { print(f(2 - i)); } }",
        "integer division by zero",
    ),
])
def test_errors_mid_run_are_the_interpreters(source, message):
    module = compile_source(source)
    function = module.function("main")
    loops = find_natural_loops(function)
    with pytest.raises(EmulationError, match=message) as reference:
        run_module(module, profile=True)
    for verify in (False, True):
        with pytest.raises(EmulationError) as compiled:
            profile_function(module, function, loops, verify=verify)
        assert str(compiled.value) == str(reference.value)
        assert type(compiled.value) is type(reference.value)


# -- teeth: seeded defects in the instrumentation --------------------------------

TEETH_PROGRAMS = (
    CALLEE_WITH_LOOPS, WHILE_LOOPS, ZERO_TRIP, TWO_LEVEL_EXIT, TRIPLE_NEST,
)


def _drop_one_block_counter(monkeypatch):
    real = _ProfiledLowering._lower_block

    def mutant(self, out, block):
        before = len(out.lines)
        terminator = real(self, out, block)
        if block.name.endswith("latch"):
            assert out.lines.pop(before).strip().startswith("_n")
            if self._segment is not None and self._segment[0] > before:
                self._segment[0] -= 1
        return terminator

    monkeypatch.setattr(_ProfiledLowering, "_lower_block", mutant)


def _skip_an_exit_event(monkeypatch):
    real = _ProfiledLowering._exit_loop

    def mutant(self, out, loop):
        if loop.parent is None:
            real(self, out, loop)

    monkeypatch.setattr(_ProfiledLowering, "_exit_loop", mutant)


def _enter_as_next_iteration(monkeypatch):
    # A second activation keeps filling the first one's multiset.
    real = _ProfiledLowering._prologue

    def prologue(self, out):
        real(self, out)
        for scope in self._scopes.values():
            out.emit(f"_m{scope.name} = {{}}")

    monkeypatch.setattr(_ProfiledLowering, "_prologue", prologue)
    monkeypatch.setattr(
        _ProfiledLowering, "_enter_loop", lambda self, out, loop: None
    )


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
        assert len(zeroing) == 1
        del out.lines[zeroing[0]]

    monkeypatch.setattr(_ProfiledLowering, "_close_iteration", mutant)


def _exit_one_level_too_few(monkeypatch):
    real = _ProfiledLowering._leave

    def mutant(self, out, region):
        # An arm that leaves two levels never closes the second.
        if region is not None:
            self._exit_loop(out, region)
            if region.parent is not None:
                real(self, out, region.parent.parent)

    monkeypatch.setattr(_ProfiledLowering, "_leave", mutant)


def _drop_the_iterate_event(monkeypatch):
    """The bottom of a loop body no longer closes the iteration: every
    pass of an instance piles into its last one."""
    real = _ProfiledLowering._close_iteration
    exits = _ProfiledLowering._exit_loop

    def only_on_exit(self, out, loop):
        self._closing = True
        exits(self, out, loop)
        self._closing = False

    def mutant(self, out, loop):
        if getattr(self, "_closing", False):
            real(self, out, loop)

    monkeypatch.setattr(_ProfiledLowering, "_exit_loop", only_on_exit)
    monkeypatch.setattr(_ProfiledLowering, "_close_iteration", mutant)


MUTATIONS = {
    "drop-one-block-counter": _drop_one_block_counter,
    "skip-an-exit-event": _skip_an_exit_event,
    "enter-as-next-iteration": _enter_as_next_iteration,
    "lose-call-attribution": _lose_call_attribution,
    "keep-counters-across-iterations": _keep_counters_across_iterations,
    "exit-one-level-too-few": _exit_one_level_too_few,
    "drop-the-iterate-event": _drop_the_iterate_event,
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
        function = module.function("main")
        try:
            profile_function(
                module, function, find_natural_loops(function), verify=True
            )
        except EmulationError as error:
            assert "VERIFY_COMPILED divergence at @main" in str(error)
            caught += 1
    assert caught > 0
