"""The per-function analysis record: one home for every analysis.

(a) the record computes each part once and hands every caller the same
objects; (b) an ``ast`` pin: the planning layers construct no analysis of
their own — only the record's module calls the constructors.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import FunctionAnalyses
from repro.analysis.loops import loop_of_block
from repro.frontend import compile_source
from repro.workloads import build_kernel, kernel_names

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Where planning happens; the runtime/codegen/emulator layers keep their
#: per-module loop lookups (they run from bare or re-decoded modules).
PLANNING = [
    *(SRC / layer for layer in
      ("analysis", "pdg", "core", "planner", "opt", "pipeline")),
    SRC / "session.py",
]

#: constructor -> the module that defines it.
CONSTRUCTORS = {
    "AliasAnalysis": "analysis/alias.py",
    "collect_accesses": "analysis/memdep.py",
    "MemoryDependenceAnalysis": "analysis/memdep.py",
    "find_natural_loops": "analysis/loops.py",
}

SOURCE = """
global a: int[8];
func main() {
  var s: int = 0;
  for i in 0..8 { var t: int = a[i] * 2; a[i] = t; s = s + t; }
  print(s);
}
"""


def _planning_files():
    for root in PLANNING:
        yield from sorted(root.rglob("*.py")) if root.is_dir() else [root]


def _names(objects):
    return {obj.display_name for obj in objects}


def _called_name(node):
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", None) or getattr(func, "attr", None)
    return None


# -- (a) once, shared -----------------------------------------------------------


def test_parts_and_per_loop_queries_are_memoized():
    module = compile_source(SOURCE)
    analyses = FunctionAnalyses(module.function("main"), module)
    (loop,) = analyses.loops
    for part in (
        "alias", "loops", "loops_of_block", "accesses", "dependences",
        "iv_map",
    ):
        assert getattr(analyses, part) is getattr(analyses, part), part
    for query in (
        analyses.loop_accesses, analyses.live_out,
        analyses.scalar_reductions, analyses.privatizable,
        analyses.removable, analyses.carried_at,
    ):
        assert query(loop) is query(loop), query.__name__


def test_queries_agree_on_one_object_identity():
    module = compile_source(SOURCE)
    analyses = FunctionAnalyses(module.function("main"), module)
    (loop,) = analyses.loops
    assert _names(analyses.live_out(loop)) == {"s"}
    assert _names(analyses.privatizable(loop)) == {"t"}
    assert _names(analyses.removable(loop)) == {"i", "s", "t"}
    assert _names(analyses.carried_at(loop)) >= {"i", "s", "t"}
    # Every query's objects are the alias analysis's interned ones, and
    # every dependence's loops are the record's own.
    interned = {id(access.obj) for access in analyses.accesses}
    for objects in (
        analyses.loop_accesses(loop), analyses.live_out(loop),
        analyses.removable(loop), analyses.carried_at(loop),
    ):
        assert {id(obj) for obj in objects} <= interned
    assert all(
        carried is loop
        for dependence in analyses.dependences
        for carried in dependence.carried_loops
    )


def _enclosing_loops(loops, inst):
    """Loops containing ``inst``, innermost first: the walk up from its
    innermost loop that the record's ``loops_of_block`` must equal."""
    chain = []
    loop = loop_of_block(loops, inst.parent)
    while loop is not None:
        chain.append(loop)
        loop = loop.parent
    return chain


@pytest.mark.parametrize("kernel", kernel_names())
def test_block_loops_are_each_blocks_enclosing_loops(kernel):
    module = build_kernel(kernel)
    analyses = FunctionAnalyses(module.function("main"), module)
    for block in analyses.function.blocks:
        for inst in block.instructions:
            assert analyses.loops_of_block[block] == tuple(
                _enclosing_loops(analyses.loops, inst)
            )


# -- (b) one home ---------------------------------------------------------------


@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_only_the_record_constructs_an_analysis(constructor):
    callers = {
        str(path.relative_to(SRC))
        for path in _planning_files()
        for node in ast.walk(ast.parse(path.read_text()))
        if _called_name(node) == constructor
    }
    callers.discard(CONSTRUCTORS[constructor])
    assert callers == {"analysis/record.py"}


def test_no_build_my_own_fallback():
    """No ``x if x is not None else AliasAnalysis(module)``-style fork."""
    forks = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in _planning_files()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.IfExp)
        and _called_name(node.orelse) in CONSTRUCTORS
    ]
    assert forks == []
