"""repro.ir — the sequential core of the intermediate representation.

A compact LLVM-flavoured IR: typed values, alloca-based variables,
loads/stores, explicit CFG, and no phi nodes (source variables live in
memory).  Parallel semantics are layered on top by ``repro.frontend``
annotations; this package is purely sequential.  ``print_module`` writes
the textual form; the parser that reads it back serves the tests only
(``tests/support/ir_parser.py``).
"""
