"""Live-out object detection relative to loops."""

from repro.analysis import (
    FunctionAnalyses,
    blocks_after_loop,
    find_natural_loops,
    live_in_registers,
)
from repro.frontend import compile_source


def analyzed(source):
    module = compile_source(source)
    function = module.function("main")
    analyses = FunctionAnalyses(function, module)
    return analyses, function, analyses.loops[0]


def test_scalar_read_after_loop_is_live_out():
    analyses, function, loop = analyzed(
        "func main() { var s: int = 0;\n"
        "for i in 0..4 { s = s + i; } print(s); }"
    )
    names = {o.display_name for o in analyses.live_out(loop)}
    assert "s" in names


def test_scalar_unused_after_loop_is_dead():
    analyses, function, loop = analyzed(
        "func main() { var s: int = 0;\n"
        "for i in 0..4 { s = s + i; } print(7); }"
    )
    names = {o.display_name for o in analyses.live_out(loop)}
    assert "s" not in names


def test_array_read_after_loop_is_live_out():
    analyses, function, loop = analyzed(
        "global a: int[4];\n"
        "func main() { for i in 0..4 { a[i] = i; } print(a[2]); }"
    )
    names = {o.display_name for o in analyses.live_out(loop)}
    assert "@a" in names


def test_blocks_after_loop_exclude_loop_blocks():
    analyses, function, loop = analyzed(
        "func main() { for i in 0..4 { } print(1); }"
    )
    after = blocks_after_loop(function, loop)
    assert all(b not in loop.blocks for b in after)
    assert after


def test_objects_accessed_in_loop_partitions_reads_writes():
    analyses, function, loop = analyzed(
        "global a: int[4];\nglobal b: int[4];\n"
        "func main() { for i in 0..4 { a[i] = b[i]; } }"
    )
    accesses = analyses.loop_accesses(loop)
    read_names = {
        obj.display_name for obj, group in accesses.items()
        if any(not access.is_write for access in group)
    }
    write_names = {
        obj.display_name for obj, group in accesses.items()
        if any(access.is_write for access in group)
    }
    assert "@b" in read_names and "@b" not in write_names
    assert "@a" in write_names and "@a" not in read_names


def test_liveout_through_later_loop():
    analyses, function, loop = analyzed(
        "global a: int[4];\n"
        "func main() { for i in 0..4 { a[i] = i; }\n"
        "for j in 0..4 { print(a[j]); } }"
    )
    names = {o.display_name for o in analyses.live_out(loop)}
    assert "@a" in names


def test_live_in_registers_excludes_loop_defs():
    module = compile_source("""
    global a: int[8];

    func main() {
      var base: int = 3;
      for i in 0..8 {
        a[i] = base + i;
      }
      print(a[5]);
    }
    """)
    function = module.function("main")
    loops = find_natural_loops(function)
    needed = live_in_registers(loops)
    inside = {
        inst
        for loop in loops
        for block in loop.blocks
        for inst in block.instructions
    }
    assert needed
    assert not (needed & inside)
