"""The ``profile`` stage says which engine ran, and the compile path is
off the interpreter: a cold ``-O3`` compile of any kernel interprets
nothing."""

import sys

import pytest

from repro import Session
from repro.analysis.loops import Loop
from repro.codegen.profile import profile_function
from repro.emulator.interp import Interpreter
from repro.ir.parser import parse_ir
from repro.runtime import knobs
from repro.workloads.nas import KERNELS
from support.programs import REFUSED_CFGS, dense_source, histogram_source

def _programs():
    for kernel in sorted(KERNELS):
        yield kernel, lambda kernel=kernel: Session.from_kernel(kernel)
    for n in (8, 48, 96):
        yield f"dense{n}", lambda n=n: Session.from_source(
            dense_source(n), name=f"dense{n}"
        )
    yield "histogram", lambda: Session.from_source(
        histogram_source(), name="histogram"
    )


@pytest.mark.parametrize("name,build", list(_programs()))
def test_the_profile_runs_compiled_and_says_so(name, build):
    session = build()
    execution = session.execution
    stats = session.diagnostics.stats("profile")
    assert stats == {
        "steps": execution.steps, "engine": "compiled", "refused": None,
    }
    assert execution.profile.engine == "compiled"
    assert "engine=compiled" in session.diagnostics.report()


# -- one program per refusal class: interpreted, and the stats say why ---------

RECURSIVE = """
global n: int[1];
func main() {
  n[0] = n[0] + 1;
  if (n[0] < 3) { main(); }
  for i in 0..2 { n[0] = n[0] + 0; }
}
"""

POINTER_SELECT = """
global @a: [2 x int]
global @b: [2 x int]
func @main() -> void {
entry:
  %0 = gep @a, 0
  %1 = gep @b, 1
  %2 = cmp lt 1, 2
  %3 = select %2, %0, %1
  store 7, %3
  %5 = load %3
  print "v", %5
  return
}
"""

ENTRY_IS_A_LOOP_HEADER = """
global @n: [1 x int]
func @main() -> void {
entry:
  %0 = gep @n, 0
  %1 = load %0
  %2 = add %1, 1
  store %2, %0
  %4 = cmp lt %2, 3
  branch %4, entry, done
done:
  print "n", %2
  return
}
"""

REFUSED = {
    "reaches-itself": (
        lambda: Session.from_source(RECURSIVE, name="recursive"),
        "@main can reach itself through the call graph",
    ),
    "pointer-select": (
        lambda: Session.from_module(parse_ir(POINTER_SELECT), name="select"),
        "entry <select#3>: select over pointers",
    ),
    "entry-is-a-loop-header": (
        lambda: Session.from_module(
            parse_ir(ENTRY_IS_A_LOOP_HEADER), name="entry-loop"
        ),
        "entry block entry is a loop header",
    ),
    # A CFG the walk refuses says so with the block, like an instruction.
    "loop-left-by-a-jump": (
        lambda: Session.from_module(
            parse_ir(REFUSED_CFGS["break"][0]), name="break"
        ),
        "header: loop is left from a block other than its header",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_refused_function_is_interpreted_and_the_stats_say_why(name):
    build, reason = REFUSED[name]
    session = build()
    execution = session.execution
    assert session.diagnostics.stats("profile") == {
        "steps": execution.steps, "engine": "interpreted", "refused": reason,
    }
    # The interpreter's profile is the recorded tree, and plans as ever.
    assert execution.profile.root is not None
    assert execution.profile.total() == execution.steps
    assert f"refused={reason}" in session.diagnostics.report()
    if name != "pointer-select":  # which alias analysis refuses as well
        session.critical_paths()


def test_a_loop_block_reachable_around_its_header_is_refused():
    # No natural-loop forest has one (the header dominates the loop), so
    # the forest is doctored: a "loop" headed by the real loop's latch.
    session = Session.from_source(
        "func main() { for i in 0..3 { print(i); } }", name="doctored"
    )
    function = session.function
    latch, body = function.block("for.latch"), function.block("for.body")
    fake = Loop(latch, [body], dict.fromkeys([latch, body]))
    result = profile_function(session.module, function, [fake])
    assert result.profile.engine == "interpreted"
    assert result.profile.refused == (
        "for.body: reached around the loop nest's structure"
    )


# -- the headline: nothing on the compile path interprets -----------------------


def _spy_on_decode(monkeypatch):
    # VERIFY_COMPILED arms the interpreter as the cross-check; the claim
    # is about an unarmed compile.  Every fetch-execute loop decodes a
    # block the first time it runs it, so no decode is no interpretation.
    monkeypatch.setattr(knobs.VERIFY_COMPILED, "value", False)
    callers = []
    real = Interpreter._decode

    def spy(self, block):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, block)

    monkeypatch.setattr(Interpreter, "_decode", spy)
    return callers


def _cold_compile(kernel):
    session = Session.from_kernel(kernel, opt_level=3, compile_regions=True)
    session.compiled_regions
    return session


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_cold_compile_interprets_nothing(kernel, monkeypatch):
    callers = _spy_on_decode(monkeypatch)
    _cold_compile(kernel)
    assert callers == []
