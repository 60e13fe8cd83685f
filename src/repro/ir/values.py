"""Value hierarchy for the repro IR.

Everything an instruction can reference as an operand is a :class:`Value`:
constants, function arguments, global variables, and instruction results.
Instruction results are single-assignment temporaries (``%0``, ``%1``, ...);
named source-level variables are *memory* (``alloca``/global) and are only
touched through ``load``/``store``.
"""

from repro.ir.types import PointerType


class Value:
    """Base class for anything usable as an instruction operand."""

    def __init__(self, type_, name=None):
        self.type = type_
        self.name = name


class Constant(Value):
    """An immediate int/float/bool constant."""

    def __init__(self, type_, value):
        super().__init__(type_)
        self.value = value

    def short(self):
        return repr(self.value)

    def __repr__(self):
        return f"const({self.value!r}: {self.type!r})"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_, name, index):
        super().__init__(type_, name)
        self.index = index

    def short(self):
        return f"%{self.name}"

    def __repr__(self):
        return f"arg(%{self.name}: {self.type!r})"


class GlobalVariable(Value):
    """A module-level memory object.

    ``value_type`` is the type of the stored data; the :class:`Value` type of
    the global itself is a pointer to it, exactly like LLVM globals.
    ``initializer`` is either ``None`` (zero-initialized), a scalar Python
    value, or a flat list of scalars covering every slot.
    """

    def __init__(self, name, value_type, initializer=None):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer

    def short(self):
        return f"@{self.name}"

    def __repr__(self):
        return f"global(@{self.name}: {self.value_type!r})"
