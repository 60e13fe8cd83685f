"""Natural loop detection and the nesting forest."""

from repro.analysis.loops import find_natural_loops, loop_of_block
from repro.analysis.record import FunctionAnalyses
from repro.frontend import compile_source


def loops_of(source):
    module = compile_source(source)
    function = module.function("main")
    return function, find_natural_loops(FunctionAnalyses(function, module))


def test_single_loop_detected():
    function, loops = loops_of("func main() { for i in 0..4 { } }")
    assert len(loops) == 1
    assert loops[0].header.name == "for.header"
    assert loops[0].canonical is not None


def test_while_loop_has_no_canonical_metadata():
    function, loops = loops_of(
        "func main() { var x: int = 0;\n"
        "while (x < 5) { x = x + 1; } }"
    )
    assert len(loops) == 1
    assert loops[0].canonical is None


def test_nesting_forest():
    function, loops = loops_of(
        "func main() { for i in 0..3 { for j in 0..3 { } } for k in 0..3 { } }"
    )
    assert len(loops) == 3
    tops = [loop for loop in loops if loop.parent is None]
    assert len(tops) == 2
    inner = [loop for loop in loops if loop.parent is not None]
    assert len(inner) == 1
    assert inner[0].parent in tops
    assert inner[0].depth == 1


def test_loop_blocks_contain_body_and_latch():
    function, loops = loops_of("func main() { for i in 0..4 { print(i); } }")
    names = {b.name for b in loops[0].blocks}
    assert {"for.header", "for.body", "for.latch"} <= names
    assert "for.exit" not in names


def test_exit_and_back_edges():
    function, loops = loops_of("func main() { for i in 0..4 { } }")
    loop = loops[0]
    assert [(f.name, t.name) for f, t in loop.back_edges()] == [
        ("for.latch", "for.header")
    ]
    exits = loop.exit_edges()
    assert all(target not in loop.blocks for _, target in exits)


def test_loop_of_block_returns_innermost():
    function, loops = loops_of(
        "func main() { for i in 0..3 { for j in 0..3 { print(j); } } }"
    )
    inner_body = function.block("for.body.1")
    innermost = loop_of_block(loops, inner_body)
    assert innermost.header.name == "for.header.1"


def test_enclosing_and_common_loops():
    function, loops = loops_of(
        "func main() { for i in 0..3 { print(i); for j in 0..3 { print(j); } } }"
    )
    outer_print = next(
        i for i in function.block("for.body").instructions
        if i.opcode == "print"
    )
    inner_print = next(
        i for i in function.block("for.body.1").instructions
        if i.opcode == "print"
    )

    def enclosing(inst):
        return [loop for loop in loops if loop.contains_instruction(inst)]

    assert len(enclosing(outer_print)) == 1
    assert len(enclosing(inner_print)) == 2
    commons = [
        loop for loop in enclosing(outer_print)
        if loop in enclosing(inner_print)
    ]
    assert len(commons) == 1
    assert commons[0].header.name == "for.header"
    inner = loop_of_block(loops, inner_print.parent)
    assert inner.parent is commons[0] and inner.depth == 1


def test_loop_equality_by_header():
    function, loops_a = loops_of("func main() { for i in 0..4 { } }")
    loops_b = find_natural_loops(FunctionAnalyses(function, None))
    assert loops_a[0] == loops_b[0]
    assert hash(loops_a[0]) == hash(loops_b[0])


def test_descendants():
    function, loops = loops_of(
        "func main() { for i in 0..3 { for j in 0..3 { for k in 0..3 { } } } }"
    )
    top = next(loop for loop in loops if loop.parent is None)
    assert len(top.descendants()) == 2


def test_loop_blocks_iterate_in_discovery_order():
    """Header, then latches, then the blocks found walking back from
    them: the same order on every run, whatever the hash seed."""
    function, loops = loops_of(
        "func main() { var s: int = 0;\n"
        "for i in 0..3 { if (i > 1) { s = s + i; }\n"
        "  for j in 0..2 { print(j); } }\n"
        "print(s); }"
    )
    assert [[b.name for b in loop.blocks] for loop in loops] == [
        [
            "for.header", "for.latch.1", "for.exit.1", "for.header.1",
            "if.end", "for.latch", "for.body.1", "for.body", "if.then",
        ],
        ["for.header.1", "for.latch", "for.body.1"],
    ]
