"""Instruction set of the repro IR.

The instruction set mirrors the subset of LLVM IR that the paper's pipeline
manipulates: stack allocation, loads/stores, element-pointer arithmetic,
integer/float arithmetic, comparisons, selects, casts, calls, an observable
``print``, and the three terminators (``jump``, ``branch``, ``return``).

Design notes
------------
* Instructions are :class:`~repro.ir.values.Value`\\ s; their results are
  single-assignment temporaries named ``%<n>``.
* There are **no phi nodes**: source variables live in memory, so values that
  cross control-flow edges do so through loads/stores ("clang -O0" shape).
  This keeps register dependences intra-block/intra-iteration and routes all
  loop-carried dataflow through the memory dependence analysis, which is
  where the PDG/PS-PDG distinction lives.
* Every instruction has a stable integer ``uid`` unique within its function,
  assigned when it is inserted into a block.
"""

from repro.ir.types import BOOL, FLOAT, INT, VOID, ArrayType, PointerType
from repro.ir.values import Value
from repro.util.errors import IRError

# Binary opcodes.  Arithmetic ops are polymorphic over int/float operands of
# matching type; bitwise/shift ops are integer only.
BINARY_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "rem",
        "min",
        "max",
        "pow",
        "and",
        "or",
        "xor",
        "shl",
        "shr",
    }
)
INT_ONLY_BINARY_OPS = frozenset({"and", "or", "xor", "shl", "shr", "rem"})

UNARY_OPS = frozenset(
    {"neg", "not", "abs", "sqrt", "sin", "cos", "exp", "log", "floor"}
)
FLOAT_ONLY_UNARY_OPS = frozenset({"sqrt", "sin", "cos", "exp", "log", "floor"})

CMP_PREDICATES = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

CAST_KINDS = frozenset({"int_to_float", "float_to_int", "bool_to_int"})


class Instruction(Value):
    """Base class for all instructions.

    ``operands`` is the ordered list of :class:`Value` inputs.  Subclasses
    expose named accessors (e.g. :attr:`Store.pointer`) over fixed operand
    positions.
    """

    opcode = "<abstract>"

    def __init__(self, type_, operands):
        super().__init__(type_)
        self.operands = list(operands)
        self.parent = None  # BasicBlock, set on insertion
        self.uid = None  # int, set on insertion

    # -- classification helpers used throughout analyses ------------------

    def reads_memory(self):
        return False

    def writes_memory(self):
        return False

    def has_side_effects(self):
        """True for instructions that must not be duplicated or dropped."""
        return self.writes_memory()

    def short(self):
        if self.type == VOID:
            return f"<{self.opcode}#{self.uid}>"
        return f"%{self.uid}"

    def describe(self):
        """One-line printable form, used by the IR printer."""
        ops = ", ".join(op.short() for op in self.operands)
        if self.type == VOID:
            return f"{self.opcode} {ops}"
        return f"%{self.uid} = {self.opcode} {ops}"

    def __repr__(self):
        return f"<{self.opcode}#{self.uid}>"


class Alloca(Instruction):
    """Reserve one stack object of ``allocated_type``; yields a pointer.

    ``var_name`` records the source-level variable name for diagnostics and
    for parallel-semantic-variable bookkeeping.
    """

    opcode = "alloca"

    def __init__(self, allocated_type, var_name=None):
        super().__init__(PointerType(allocated_type), [])
        self.allocated_type = allocated_type
        self.var_name = var_name

    def describe(self):
        suffix = f" ; {self.var_name}" if self.var_name else ""
        return f"%{self.uid} = alloca {self.allocated_type!r}{suffix}"


class Load(Instruction):
    """Read one scalar from memory through a pointer operand."""

    opcode = "load"

    def __init__(self, pointer):
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"load requires a pointer operand, got {pointer.type!r}")
        super().__init__(pointer.type.pointee, [pointer])

    @property
    def pointer(self):
        return self.operands[0]

    def reads_memory(self):
        return True


class Store(Instruction):
    """Write one scalar to memory through a pointer operand."""

    opcode = "store"

    def __init__(self, value, pointer):
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"store requires a pointer operand, got {pointer.type!r}")
        super().__init__(VOID, [value, pointer])

    @property
    def value(self):
        return self.operands[0]

    @property
    def pointer(self):
        return self.operands[1]

    def writes_memory(self):
        return True


class GetElementPtr(Instruction):
    """Index into an array: ``gep ptr, idx`` yields ``&ptr[idx]``.

    The pointee of ``pointer`` must be an array type; the result points at
    one element.  Multi-dimensional indexing chains GEPs.
    """

    opcode = "gep"

    def __init__(self, pointer, index):
        if not isinstance(pointer.type, PointerType):
            raise IRError(f"gep requires a pointer operand, got {pointer.type!r}")
        pointee = pointer.type.pointee
        if not isinstance(pointee, ArrayType):
            raise IRError(f"gep requires a pointer-to-array, got {pointer.type!r}")
        super().__init__(PointerType(pointee.element), [pointer, index])

    @property
    def pointer(self):
        return self.operands[0]

    @property
    def index(self):
        return self.operands[1]


class BinaryOp(Instruction):
    """Two-operand arithmetic/bitwise operation."""

    opcode = "binop"

    def __init__(self, op, lhs, rhs):
        if op not in BINARY_OPS:
            raise IRError(f"unknown binary op {op!r}")
        if lhs.type != rhs.type:
            raise IRError(
                f"binary op {op!r} operand types differ: "
                f"{lhs.type!r} vs {rhs.type!r}"
            )
        if op in INT_ONLY_BINARY_OPS and lhs.type != INT:
            raise IRError(f"binary op {op!r} requires int operands")
        super().__init__(lhs.type, [lhs, rhs])
        self.op = op

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]

    def describe(self):
        return f"%{self.uid} = {self.op} {self.lhs.short()}, {self.rhs.short()}"


class UnaryOp(Instruction):
    """One-operand arithmetic operation (negation, sqrt, transcendental...)."""

    opcode = "unop"

    def __init__(self, op, operand):
        if op not in UNARY_OPS:
            raise IRError(f"unknown unary op {op!r}")
        if op in FLOAT_ONLY_UNARY_OPS and operand.type != FLOAT:
            raise IRError(f"unary op {op!r} requires a float operand")
        if op == "not" and operand.type not in (INT, BOOL):
            raise IRError("'not' requires an int or bool operand")
        super().__init__(operand.type, [operand])
        self.op = op

    @property
    def operand(self):
        return self.operands[0]

    def describe(self):
        return f"%{self.uid} = {self.op} {self.operand.short()}"


class Compare(Instruction):
    """Relational comparison producing a bool."""

    opcode = "cmp"

    def __init__(self, predicate, lhs, rhs):
        if predicate not in CMP_PREDICATES:
            raise IRError(f"unknown comparison predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise IRError(
                f"cmp operand types differ: {lhs.type!r} vs {rhs.type!r}"
            )
        super().__init__(BOOL, [lhs, rhs])
        self.predicate = predicate

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]

    def describe(self):
        return (
            f"%{self.uid} = cmp {self.predicate} "
            f"{self.lhs.short()}, {self.rhs.short()}"
        )


class Select(Instruction):
    """``select cond, a, b``: value-level conditional (no control flow)."""

    opcode = "select"

    def __init__(self, condition, if_true, if_false):
        if condition.type != BOOL:
            raise IRError("select condition must be bool")
        if if_true.type != if_false.type:
            raise IRError("select arms must have matching types")
        super().__init__(if_true.type, [condition, if_true, if_false])

    @property
    def condition(self):
        return self.operands[0]

    @property
    def if_true(self):
        return self.operands[1]

    @property
    def if_false(self):
        return self.operands[2]


class Cast(Instruction):
    """Numeric conversion between int, float, and bool domains."""

    opcode = "cast"

    def __init__(self, kind, operand):
        if kind not in CAST_KINDS:
            raise IRError(f"unknown cast kind {kind!r}")
        result = {"int_to_float": FLOAT, "float_to_int": INT, "bool_to_int": INT}
        super().__init__(result[kind], [operand])
        self.kind = kind

    @property
    def operand(self):
        return self.operands[0]

    def describe(self):
        return f"%{self.uid} = {self.kind} {self.operand.short()}"


class Call(Instruction):
    """Direct call to another function in the module."""

    opcode = "call"

    def __init__(self, callee, args):
        expected = [arg.type for arg in callee.args]
        actual = [a.type for a in args]
        if expected != actual:
            raise IRError(
                f"call to @{callee.name}: argument types {actual!r} "
                f"do not match parameters {expected!r}"
            )
        super().__init__(callee.return_type, list(args))
        self.callee = callee

    def reads_memory(self):
        # Conservative: callees may touch any memory reachable from args
        # or globals.  The alias analysis refines this.
        return True

    def writes_memory(self):
        return True

    def has_side_effects(self):
        return True

    def describe(self):
        ops = ", ".join(op.short() for op in self.operands)
        if self.type == VOID:
            return f"call @{self.callee.name}({ops})"
        return f"%{self.uid} = call @{self.callee.name}({ops})"


class Print(Instruction):
    """Observable output (models printf); order of prints is program output.

    ``label`` is an optional literal prefix string (from string literals in
    the source ``print``), kept out of the operand list since it is not a
    :class:`Value`.
    """

    opcode = "print"

    def __init__(self, values, label=None):
        super().__init__(VOID, list(values))
        self.label = label

    def describe(self):
        ops = ", ".join(op.short() for op in self.operands)
        if self.label is not None:
            return f'print "{self.label}" {ops}'.rstrip()
        return f"print {ops}".rstrip()

    def has_side_effects(self):
        return True

    def reads_memory(self):
        return False

    def writes_memory(self):
        # Printing serializes with other prints; modelled as a write to a
        # distinguished "console" memory object by the alias analysis.
        return True


class Terminator(Instruction):
    """Base class for block terminators."""

    def successors(self):
        """List of successor basic blocks."""
        raise NotImplementedError

    def has_side_effects(self):
        return True


class Jump(Terminator):
    """Unconditional branch."""

    opcode = "jump"

    def __init__(self, target):
        super().__init__(VOID, [])
        self.target = target

    def successors(self):
        return [self.target]

    def describe(self):
        return f"jump {self.target.name}"


class Branch(Terminator):
    """Conditional two-way branch."""

    opcode = "branch"

    def __init__(self, condition, if_true, if_false):
        if condition.type != BOOL:
            raise IRError("branch condition must be bool")
        super().__init__(VOID, [condition])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def condition(self):
        return self.operands[0]

    def successors(self):
        return [self.if_true, self.if_false]

    def describe(self):
        return (
            f"branch {self.condition.short()}, "
            f"{self.if_true.name}, {self.if_false.name}"
        )


class Return(Terminator):
    """Return from the enclosing function, optionally with a value."""

    opcode = "return"

    def __init__(self, value=None):
        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self):
        return self.operands[0] if self.operands else None

    def successors(self):
        return []

    def describe(self):
        if self.operands:
            return f"return {self.value.short()}"
        return "return"
