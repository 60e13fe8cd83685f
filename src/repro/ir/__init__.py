"""repro.ir — the sequential core of the intermediate representation.

A compact LLVM-flavoured IR: typed values, alloca-based variables,
loads/stores, explicit CFG, and no phi nodes (source variables live in
memory).  Parallel semantics are layered on top by ``repro.frontend``
annotations; this package is purely sequential.  ``print_module`` writes
the textual form; the parser that reads it back serves the tests only
(``tests/support/ir_parser.py``).
"""

from repro.ir.types import (
    BOOL,
    FLOAT,
    INT,
    VOID,
    ArrayType,
    BoolType,
    FloatType,
    IntType,
    PointerType,
    Type,
    VoidType,
)
from repro.ir.values import (
    Argument,
    Constant,
    GlobalVariable,
    Value,
)
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    Compare,
    GetElementPtr,
    Instruction,
    Jump,
    Load,
    Print,
    Return,
    Select,
    Store,
    Terminator,
    UnaryOp,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function, Module
from repro.ir.builder import IRBuilder
from repro.ir.loopinfo import CanonicalLoop
from repro.ir.printer import print_function, print_module
from repro.ir.verifier import verify_function, verify_module

__all__ = [
    "BOOL",
    "FLOAT",
    "INT",
    "VOID",
    "ArrayType",
    "BoolType",
    "FloatType",
    "IntType",
    "PointerType",
    "Type",
    "VoidType",
    "Argument",
    "Constant",
    "GlobalVariable",
    "Value",
    "Alloca",
    "BinaryOp",
    "Branch",
    "Call",
    "Cast",
    "Compare",
    "GetElementPtr",
    "Instruction",
    "Jump",
    "Load",
    "Print",
    "Return",
    "Select",
    "Store",
    "Terminator",
    "UnaryOp",
    "BasicBlock",
    "Function",
    "Module",
    "IRBuilder",
    "CanonicalLoop",
    "print_function",
    "print_module",
    "verify_function",
    "verify_module",
]
