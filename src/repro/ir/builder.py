"""Imperative construction of IR, in the style of ``llvm::IRBuilder``.

The builder tracks a current insertion block and provides one method per
instruction plus a handful of conveniences (typed constant helpers and
arithmetic sugar).  Structured control flow (ifs, counted loops) is lowered
by the MiniOMP frontend; the builder stays deliberately low level.
"""

from repro.ir import instructions as insts
from repro.ir.types import BOOL, FLOAT, INT
from repro.ir.values import Constant
from repro.util.errors import IRError


class IRBuilder:
    """Appends instructions to a current basic block."""

    def __init__(self, block=None):
        self.block = block

    def position_at_end(self, block):
        self.block = block
        return self

    def _insert(self, instruction):
        if self.block is None:
            raise IRError("builder has no insertion block")
        return self.block.append(instruction)

    # -- constants ----------------------------------------------------------

    def int(self, value):
        return Constant(INT, int(value))

    def float(self, value):
        return Constant(FLOAT, float(value))

    def bool(self, value):
        return Constant(BOOL, bool(value))

    # -- memory ---------------------------------------------------------------

    def alloca(self, allocated_type, var_name=None):
        return self._insert(insts.Alloca(allocated_type, var_name))

    def load(self, pointer):
        return self._insert(insts.Load(pointer))

    def store(self, value, pointer):
        return self._insert(insts.Store(value, pointer))

    def gep(self, pointer, index):
        return self._insert(insts.GetElementPtr(pointer, index))

    # -- arithmetic -------------------------------------------------------------

    def binop(self, op, lhs, rhs):
        return self._insert(insts.BinaryOp(op, lhs, rhs))

    def add(self, lhs, rhs):
        return self.binop("add", lhs, rhs)

    def unop(self, op, operand):
        return self._insert(insts.UnaryOp(op, operand))

    def cmp(self, predicate, lhs, rhs):
        return self._insert(insts.Compare(predicate, lhs, rhs))

    def select(self, condition, if_true, if_false):
        return self._insert(insts.Select(condition, if_true, if_false))

    def cast(self, kind, operand):
        return self._insert(insts.Cast(kind, operand))

    # -- calls and effects -------------------------------------------------------

    def call(self, callee, args=()):
        return self._insert(insts.Call(callee, list(args)))

    def print_(self, values):
        if not isinstance(values, (list, tuple)):
            values = [values]
        return self._insert(insts.Print(list(values)))

    # -- terminators ----------------------------------------------------------

    def jump(self, target):
        return self._insert(insts.Jump(target))

    def branch(self, condition, if_true, if_false):
        return self._insert(insts.Branch(condition, if_true, if_false))

    def ret(self, value=None):
        return self._insert(insts.Return(value))
