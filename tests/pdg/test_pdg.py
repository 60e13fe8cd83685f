"""Sequential PDG construction."""

from repro.analysis.record import FunctionAnalyses
from repro.core.builder import PSPDGBuilder
from repro.frontend import compile_source
from repro.pdg.graph import EDGE_CONTROL, EDGE_MEMORY, EDGE_REGISTER
from repro.pdg.builder import pdg_from_analyses
from repro.planner.views import DependenceView
from repro.planner.classify import loop_instructions


def pdg_for(source):
    module = compile_source(source)
    function = module.function("main")
    return pdg_from_analyses(FunctionAnalyses(function, module))


def test_every_instruction_is_a_node():
    pdg = pdg_for("func main() { var x: int = 1; print(x); }")
    assert len(pdg.nodes) == len(list(pdg.function.instructions()))


def test_register_edges_follow_operands():
    pdg = pdg_for("func main() { var x: int = 1; print(x + 2); }")
    register_edges = [e for e in pdg.edges if e.kind == EDGE_REGISTER]
    assert register_edges
    for edge in register_edges:
        assert edge.source in edge.destination.operands


def test_control_edges_source_from_branches():
    pdg = pdg_for(
        "func main() { var x: int = 1; if (x > 0) { print(1); } }"
    )
    control_edges = [e for e in pdg.edges if e.kind == EDGE_CONTROL]
    assert control_edges
    assert all(e.source.opcode == "branch" for e in control_edges)


def test_memory_edges_have_objects_and_kinds():
    pdg = pdg_for(
        "global a: int[4];\nfunc main() { a[0] = 1; print(a[0]); }"
    )
    memory_edges = [e for e in pdg.edges if e.kind == EDGE_MEMORY]
    assert any(e.mem_kind == "RAW" for e in memory_edges)
    assert all(e.obj is not None for e in memory_edges)


def test_statistics_shape():
    pdg = pdg_for("func main() { var s: int = 0;\n"
                  "for i in 0..3 { s = s + i; } print(s); }")
    (loop,) = pdg.analyses.loops
    carried = [e for e in pdg.edges if e.carried_loops]
    assert carried  # s and i, each read after last iteration's write
    assert all(e.kind == EDGE_MEMORY for e in carried)
    assert all(e.carried_loops == (loop,) for e in carried)
    assert {e.obj.display_name for e in carried} >= {"s"}
    assert len(pdg.nodes) == len(list(pdg.function.instructions()))


def test_loop_adjacency_restricted_to_loop():
    pdg = pdg_for("func main() { var s: int = 0;\n"
                  "for i in 0..3 { s = s + i; } print(s); }")
    loop = pdg.analyses.loops[0]
    view = DependenceView("PDG", PSPDGBuilder(pdg).build())
    node_set = set(loop_instructions(loop))
    pairs = view.carried_edges(loop) + view.intra_edges(loop)
    assert pairs
    for src, dst in pairs:
        assert src in node_set and dst in node_set


def test_loops_attached_to_pdg():
    pdg = pdg_for("func main() { for i in 0..3 { } }")
    assert len(pdg.analyses.loops) == 1
