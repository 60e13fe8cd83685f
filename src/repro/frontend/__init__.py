"""repro.frontend — MiniOMP/Cilk source to annotated IR.

The one-call entry point::

    from repro.frontend import compile_source
    module = compile_source(source_text)

mirrors the paper's custom clang-based pipeline stage: parse the pragmas,
lower to sequential IR, and carry the parallel semantics as metadata
(``Function.annotations``) for the PS-PDG builder.
"""

from repro.frontend.lexer import tokenize
from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_source


def compile_source(source, module_name="miniomp"):
    """Compile MiniOMP source text to a verified, annotated IR module."""
    program = parse_source(source)
    return lower_program(program, module_name)


__all__ = [
    "tokenize",
    "lower_program",
    "parse_source",
    "compile_source",
]
