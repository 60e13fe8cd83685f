"""Type system for the repro IR.

The IR is deliberately small: scalar ``int``/``float``/``bool``, ``void`` for
functions without a result, fixed-size (possibly nested) arrays, and typed
pointers.  Named program variables live in memory (``alloca``/globals), so
pointers appear pervasively even though the source language has none.

Memory is measured in *slots*: one slot holds one scalar.  An array of
``n`` elements occupies ``n * element.slots()`` consecutive slots.  This is
the unit used by ``getelementptr`` offset arithmetic and by the interpreter's
flat per-object storage.
"""


class Type:
    """Base class for IR types.  Types are immutable and compare by value;
    each gives ``slots()``, the scalar slots a value of it occupies in
    memory."""

    def is_scalar(self):
        return False

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self).__name__)


class IntType(Type):
    """Arbitrary-precision signed integer (models i64 without overflow)."""

    def slots(self):
        return 1

    def is_scalar(self):
        return True

    def __repr__(self):
        return "int"


class FloatType(Type):
    """IEEE double precision floating point."""

    def slots(self):
        return 1

    def is_scalar(self):
        return True

    def __repr__(self):
        return "float"


class BoolType(Type):
    """Single-bit predicate produced by comparisons."""

    def slots(self):
        return 1

    def is_scalar(self):
        return True

    def __repr__(self):
        return "bool"


class VoidType(Type):
    """The absence of a value (only valid as a function return type)."""

    def slots(self):
        return 0

    def __repr__(self):
        return "void"


class ArrayType(Type):
    """Fixed-size homogeneous array; elements may themselves be arrays."""

    def __init__(self, element, count):
        if count < 0:
            raise ValueError(f"array count must be non-negative, got {count}")
        self.element = element
        self.count = count

    def slots(self):
        return self.count * self.element.slots()

    def __eq__(self, other):
        return (
            isinstance(other, ArrayType)
            and self.count == other.count
            and self.element == other.element
        )

    def __hash__(self):
        return hash(("array", self.count, self.element))

    def __repr__(self):
        return f"[{self.count} x {self.element!r}]"


class PointerType(Type):
    """Pointer to a value of the pointee type.  Occupies one slot."""

    def __init__(self, pointee):
        self.pointee = pointee

    def slots(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, PointerType) and self.pointee == other.pointee

    def __hash__(self):
        return hash(("ptr", self.pointee))

    def __repr__(self):
        return f"{self.pointee!r}*"


# Singleton instances: the scalar types carry no state, so share them.
INT = IntType()
FLOAT = FloatType()
BOOL = BoolType()
VOID = VoidType()
