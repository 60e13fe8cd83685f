"""Function/module structure and verifier invariants."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.types import INT
from repro.ir.verifier import verify_function, verify_module
from repro.util.errors import IRError, VerificationError


def _terminated_function():
    function = Function("f")
    builder = IRBuilder(function.create_block("entry"))
    builder.ret()
    return function, builder


class TestFunctionStructure:
    def test_block_names_are_uniquified(self):
        function = Function("f")
        a = function.create_block("x")
        b = function.create_block("x")
        assert a.name == "x"
        assert b.name == "x.1"

    def test_block_lookup(self):
        function = Function("f")
        block = function.create_block("here")
        assert function.block("here") is block
        with pytest.raises(IRError):
            function.block("missing")

    def test_entry_is_first_block(self):
        function = Function("f")
        entry = function.create_block("entry")
        function.create_block("later")
        assert function.entry is entry

    def test_uids_are_unique_and_ordered(self):
        function, builder = _terminated_function()
        uids = [inst.uid for inst in function.instructions()]
        assert len(uids) == len(set(uids))

    def test_append_after_terminator_rejected(self):
        function, builder = _terminated_function()
        with pytest.raises(IRError):
            builder.ret()

    def test_duplicate_function_rejected(self):
        module = Module()
        module.create_function("f")
        with pytest.raises(IRError):
            module.create_function("f")

    def test_duplicate_global_rejected(self):
        module = Module()
        module.add_global("g", INT)
        with pytest.raises(IRError):
            module.add_global("g", INT)


class TestVerifier:
    def test_accepts_wellformed(self):
        function, _ = _terminated_function()
        verify_function(function)

    def test_rejects_unterminated_block(self):
        function = Function("f")
        builder = IRBuilder(function.create_block("entry"))
        builder.alloca(INT, "x")
        with pytest.raises(VerificationError):
            verify_function(function)

    def test_rejects_empty_function(self):
        with pytest.raises(VerificationError):
            verify_function(Function("f"))

    def test_rejects_use_before_def_in_block(self):
        function = Function("f")
        block = function.create_block("entry")
        builder = IRBuilder(block)
        slot = builder.alloca(INT, "x")
        value = builder.load(slot)
        builder.ret()
        # Manually move the load before its alloca.
        block.instructions[0], block.instructions[1] = (
            block.instructions[1],
            block.instructions[0],
        )
        with pytest.raises(VerificationError):
            verify_function(function)

    def test_rejects_branch_to_foreign_block(self):
        f1 = Function("f1")
        f2 = Function("f2")
        foreign = f2.create_block("there")
        builder = IRBuilder(f1.create_block("entry"))
        builder.jump(foreign)
        with pytest.raises(VerificationError):
            verify_function(f1)

    def test_rejects_call_to_foreign_function(self):
        module_a = Module()
        callee = module_a.create_function("g")
        IRBuilder(callee.create_block("entry")).ret()

        module_b = Module()
        caller = module_b.create_function("f")
        builder = IRBuilder(caller.create_block("entry"))
        builder.call(callee, [])
        builder.ret()
        with pytest.raises(VerificationError):
            verify_module(module_b)

    def test_verify_module_covers_all_functions(self):
        module = Module()
        good = module.create_function("good")
        IRBuilder(good.create_block("entry")).ret()
        bad = module.create_function("bad")
        bad.create_block("entry")  # left unterminated
        with pytest.raises(VerificationError):
            verify_module(module)
