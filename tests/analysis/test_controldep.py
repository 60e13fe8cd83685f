"""Control dependence (Ferrante/Ottenstein/Warren)."""

from repro.analysis.controldep import compute_control_dependence
from repro.analysis.record import FunctionAnalyses
from repro.frontend import compile_source
from repro.pdg.builder import pdg_from_analyses
from repro.pdg.graph import EDGE_CONTROL


def deps_by_name(source):
    module = compile_source(source)
    function = module.function("main")
    deps = compute_control_dependence(FunctionAnalyses(function, module))
    return function, {
        block.name: sorted(b.name for b in sources)
        for block, sources in deps.items()
    }


def test_straightline_has_no_control_dependences():
    _, deps = deps_by_name("func main() { var x: int = 1; print(x); }")
    assert all(not sources for sources in deps.values())


def test_if_arms_depend_on_condition_block():
    function, deps = deps_by_name(
        "func main() { var x: int = 1;\n"
        "if (x > 0) { print(1); } else { print(2); } print(3); }"
    )
    assert deps["if.then"] == ["entry"]
    assert deps["if.else"] == ["entry"]
    # The merge block runs regardless: no control dependence.
    assert deps["if.end"] == []


def test_loop_body_depends_on_header():
    _, deps = deps_by_name("func main() { for i in 0..4 { print(i); } }")
    assert "for.header" in deps["for.body"]
    assert "for.header" in deps["for.latch"]


def test_loop_header_self_dependence():
    _, deps = deps_by_name("func main() { for i in 0..4 { print(i); } }")
    assert "for.header" in deps["for.header"]


def test_nested_if_chains_dependences():
    _, deps = deps_by_name(
        "func main() { var x: int = 1;\n"
        "if (x > 0) { if (x > 1) { print(1); } } }"
    )
    # Inner then-block is controlled by the inner branch, which lives in
    # the outer then-block.
    assert deps["if.then.1"] == ["if.then"]
    assert deps["if.then"] == ["entry"]


def test_instruction_level_sources_are_branches():
    module = compile_source(
        "func main() { var x: int = 1; if (x > 0) { print(1); } }"
    )
    function = module.function("main")
    pdg = pdg_from_analyses(FunctionAnalyses(function, module))
    then_block = function.block("if.then")
    for inst in then_block.instructions:
        sources = [
            edge.source for edge in pdg.edges
            if edge.kind == EDGE_CONTROL and edge.destination is inst
        ]
        assert len(sources) == 1
        assert sources[0].opcode == "branch"


def test_a_loop_with_no_exit_hangs_off_its_branch():
    # Hand-written IR: ``spin`` reaches no return.  Both arms of
    # ``entry``'s branch are control dependent on it, and the walk
    # stops at the virtual exit instead of looking it up.
    from support.ir_parser import parse_ir
    from support.programs import REFUSED_CFGS

    module = parse_ir(REFUSED_CFGS["infinite"][0])
    analyses = FunctionAnalyses(module.function("main"), module)
    deps = {
        block.name: sorted(b.name for b in sources)
        for block, sources in compute_control_dependence(analyses).items()
    }
    assert deps == {"entry": [], "spin": ["entry"], "done": ["entry"]}
