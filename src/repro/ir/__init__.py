"""repro.ir — the sequential core of the intermediate representation.

A compact LLVM-flavoured IR: typed values, alloca-based variables,
loads/stores, explicit CFG, and no phi nodes (source variables live in
memory).  Parallel semantics are layered on top by ``repro.frontend``
annotations; this package is purely sequential.  ``print_module`` writes
the textual form; the parser that reads it back serves the tests only
(``tests/support/ir_parser.py``).
"""

from repro.ir.types import BOOL, FLOAT, INT, VOID, ArrayType, PointerType
from repro.ir.values import Constant
from repro.ir.function import Function, Module
from repro.ir.builder import IRBuilder
from repro.ir.printer import print_function, print_module
from repro.ir.verifier import verify_function, verify_module

__all__ = [
    "BOOL",
    "FLOAT",
    "INT",
    "VOID",
    "ArrayType",
    "PointerType",
    "Constant",
    "Function",
    "Module",
    "IRBuilder",
    "print_function",
    "print_module",
    "verify_function",
    "verify_module",
]
