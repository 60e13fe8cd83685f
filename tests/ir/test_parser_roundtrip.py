"""Textual IR round-trip: parse(print(module)) is semantics-preserving.

The printer/parser pair normalizes value numbering, so the test for
syntactic stability is idempotence after one normalization; semantic
equivalence is checked by interpreting both modules.
"""

import pytest

from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from support.ir_parser import parse_ir

PROGRAMS = {
    "straightline": "func main() { var x: int = 3; print(x * 2 + 1); }",
    "branches": (
        "func main() { var x: int = 5;\n"
        "if (x > 2) { print(1); } else { print(2); }\n"
        "if (x > 9) { print(3); } }"
    ),
    "loops": (
        "global a: int[8];\n"
        "func main() { var s: int = 0;\n"
        "for i in 0..8 { a[i] = i * i; s = s + a[i]; }\nprint(s); }"
    ),
    "floats": (
        "func main() { var f: float = 1.5;\n"
        "print(sqrt(f * f), floor(f), f / 2.0); }"
    ),
    "calls": (
        "func square(x: int) -> int { return x * x; }\n"
        "func main() { print(square(7), square(2)); }"
    ),
    "arrays2d": (
        "global m: float[3][3];\n"
        "func main() { for i in 0..3 { for j in 0..3 {\n"
        "m[i][j] = float(i) + float(j) * 0.5; } }\nprint(m[2][1]); }"
    ),
    "labels": 'func main() { print("answer", 42); }',
    "bools_selects": (
        "func main() { var x: int = 3;\n"
        "print(x > 1 && x < 5, x > 1 || x > 9); }"
    ),
    "while": (
        "func main() { var x: int = 1;\n"
        "while (x < 50) { x = x * 3; } print(x); }"
    ),
    "recursion": (
        "func fact(n: int) -> int {\n"
        "  if (n < 2) { return 1; }\n"
        "  return n * fact(n - 1);\n"
        "}\nfunc main() { print(fact(6)); }"
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_roundtrip_preserves_semantics(name):
    module = compile_source(PROGRAMS[name])
    expected = run_module(module).formatted_output()

    reparsed = parse_ir(print_module(module))
    verify_module(reparsed)
    assert run_module(reparsed).formatted_output() == expected


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_normalized_text_is_stable(name):
    module = compile_source(PROGRAMS[name])
    once = print_module(parse_ir(print_module(module)))
    twice = print_module(parse_ir(once))
    assert once == twice


def test_global_initializers_roundtrip():
    module = compile_source(
        "global g: int = 11;\nfunc main() { print(g); }"
    )
    reparsed = parse_ir(print_module(module))
    assert reparsed.globals["g"].initializer == 11


def test_parse_rejects_garbage():
    from repro.util.errors import IRError

    with pytest.raises(IRError):
        parse_ir("this is not ir")


def test_parse_rejects_undefined_value():
    from repro.util.errors import IRError

    text = (
        "func @main() -> void {\n"
        "entry:\n"
        "  print %99\n"
        "  return\n"
        "}"
    )
    with pytest.raises(IRError):
        parse_ir(text)
