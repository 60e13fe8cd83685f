"""Instruction construction and typing rules."""

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.frontend import compile_source
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.types import BOOL, FLOAT, INT, ArrayType
from repro.ir.values import Constant
from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Compare,
    GetElementPtr,
    Load,
    Select,
    Store,
    UnaryOp,
)
from repro.util.errors import IRError


@pytest.fixture
def builder():
    function = Function("f")
    return IRBuilder(function.create_block("entry"))


class TestBinaryOps:
    def test_result_type_matches_operands(self, builder):
        v = builder.add(builder.int(1), builder.int(2))
        assert v.type == INT
        w = builder.binop("mul", builder.float(1.5), builder.float(2.0))
        assert w.type == FLOAT

    def test_mixed_types_rejected(self, builder):
        with pytest.raises(IRError):
            BinaryOp("add", Constant(INT, 1), Constant(FLOAT, 1.0))

    def test_int_only_ops_reject_floats(self):
        with pytest.raises(IRError):
            BinaryOp("rem", Constant(FLOAT, 1.0), Constant(FLOAT, 2.0))
        with pytest.raises(IRError):
            BinaryOp("xor", Constant(FLOAT, 1.0), Constant(FLOAT, 2.0))

    def test_unknown_op_rejected(self):
        with pytest.raises(IRError):
            BinaryOp("bogus", Constant(INT, 1), Constant(INT, 2))


class TestUnaryOps:
    def test_float_only_ops_reject_ints(self):
        with pytest.raises(IRError):
            UnaryOp("sqrt", Constant(INT, 4))

    def test_neg_preserves_type(self, builder):
        assert builder.unop("neg", builder.float(1.0)).type == FLOAT
        assert builder.unop("neg", builder.int(1)).type == INT

    def test_not_requires_int_or_bool(self):
        assert UnaryOp("not", Constant(BOOL, True)).type == BOOL
        with pytest.raises(IRError):
            UnaryOp("not", Constant(FLOAT, 1.0))


class TestCompare:
    def test_produces_bool(self, builder):
        assert builder.cmp("lt", builder.int(1), builder.int(2)).type == BOOL

    def test_mismatched_operands_rejected(self):
        with pytest.raises(IRError):
            Compare("eq", Constant(INT, 1), Constant(FLOAT, 1.0))

    def test_unknown_predicate_rejected(self):
        with pytest.raises(IRError):
            Compare("spaceship", Constant(INT, 1), Constant(INT, 2))


class TestMemory:
    def test_load_requires_pointer(self):
        with pytest.raises(IRError):
            Load(Constant(INT, 3))

    def test_store_requires_pointer(self):
        with pytest.raises(IRError):
            Store(Constant(INT, 3), Constant(INT, 4))

    def test_load_type_is_pointee(self, builder):
        slot = builder.alloca(FLOAT, "x")
        assert builder.load(slot).type == FLOAT

    def test_gep_requires_pointer_to_array(self, builder):
        scalar = builder.alloca(INT, "x")
        with pytest.raises(IRError):
            GetElementPtr(scalar, Constant(INT, 0))

    def test_gep_peels_one_dimension(self, builder):
        matrix = builder.alloca(ArrayType(ArrayType(INT, 4), 3), "m")
        row = builder.gep(matrix, builder.int(1))
        assert row.type.pointee == ArrayType(INT, 4)
        element = builder.gep(row, builder.int(2))
        assert element.type.pointee == INT

    def test_memory_classification(self):
        module = compile_source(
            "func main() { var x: int = 0; x = x + 1; print(x); }"
        )
        function = module.function("main")
        effects = {}
        for access in FunctionAnalyses(function, module).accesses:
            effects.setdefault(access.instruction.opcode, set()).add(
                access.is_write
            )
        assert effects["load"] == {False}
        assert effects["store"] == {True}
        assert effects["print"] == {True}  # a write to the console object
        assert set(effects) == {"load", "store", "print"}


class TestSelectAndBranch:
    def test_select_requires_bool_condition(self):
        with pytest.raises(IRError):
            Select(Constant(INT, 1), Constant(INT, 2), Constant(INT, 3))

    def test_select_arms_must_match(self):
        with pytest.raises(IRError):
            Select(
                Constant(BOOL, True), Constant(INT, 1), Constant(FLOAT, 1.0)
            )

    def test_branch_requires_bool(self):
        function = Function("f")
        b1 = function.create_block("a")
        b2 = function.create_block("b")
        with pytest.raises(IRError):
            Branch(Constant(INT, 1), b1, b2)

    def test_terminator_successors(self, builder):
        function = builder.block.parent
        target = function.create_block("next")
        jump = builder.jump(target)
        assert jump.successors() == [target]


class TestCalls:
    def test_call_checks_argument_types(self):
        module = Module()
        callee = module.create_function("g", [INT], ["x"], INT)
        caller = module.create_function("f")
        builder = IRBuilder(caller.create_block("entry"))
        with pytest.raises(IRError):
            builder.call(callee, [builder.float(1.0)])

    def test_call_result_type(self):
        module = Module()
        callee = module.create_function("g", [INT], ["x"], FLOAT)
        caller = module.create_function("f")
        builder = IRBuilder(caller.create_block("entry"))
        assert builder.call(callee, [builder.int(1)]).type == FLOAT
