"""Reduction recognition and seeding, and sequential privatization."""

import pytest

from repro.analysis.record import FunctionAnalyses
from repro.analysis.alias import AllocaObject
from repro.analysis.memdep import MemoryAccess
from repro.analysis.reductions import identity_slots, update_op
from repro.frontend import compile_source
from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.types import FLOAT, INT, ArrayType
from repro.util.errors import PlanError


def analyze(source):
    module = compile_source(source)
    analyses = FunctionAnalyses(module.function("main"), module)
    loop = analyses.loops[0]
    return analyses.scalar_reductions(loop), analyses.privatizable(loop)


class TestReductions:
    def test_sum_recognized(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; } print(s); }"
        )
        assert len(reductions) == 1
        assert reductions[0].op == "add"

    def test_product_recognized(self):
        reductions, _ = analyze(
            "func main() { var p: int = 1;\n"
            "for i in 1..5 { p = p * i; } print(p); }"
        )
        assert reductions and reductions[0].op == "mul"

    def test_max_recognized(self):
        reductions, _ = analyze(
            "global a: int[4];\n"
            "func main() { var m: int = 0;\n"
            "for i in 0..4 { m = max(m, a[i]); } print(m); }"
        )
        assert reductions and reductions[0].op == "max"

    def test_conditional_update_recognized(self):
        reductions, _ = analyze(
            "global a: int[4];\n"
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { if (a[i] > 0) { s = s + a[i]; } } print(s); }"
        )
        assert len(reductions) == 1

    def test_subtraction_not_recognized(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s - i; } print(s); }"
        )
        assert reductions == []

    def test_extra_use_defeats_recognition(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; print(s); } }"
        )
        assert reductions == []

    def test_self_dependent_operand_rejected(self):
        reductions, _ = analyze(
            "func main() { var s: int = 1;\n"
            "for i in 0..4 { s = s + s; } print(s); }"
        )
        assert reductions == []

    def test_identity_values(self):
        reductions, _ = analyze(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; } print(s); }"
        )
        assert identity_slots(INT, reductions[0].op) == [0]


def array_update_op(body, name="@h"):
    """:func:`update_op` of global ``name``'s accesses in the one loop."""
    module = compile_source(
        "global h: int[8];\nglobal k: int[4];\nglobal a: int[4];\n"
        "func touch(p: int[8]) { p[0] = 1; }\n"
        f"func main() {{ for i in 0..4 {{ {body} }} }}"
    )
    analyses = FunctionAnalyses(module.function("main"), module)
    (loop,) = analyses.loops
    accesses = analyses.loop_accesses(loop)
    (group,) = [g for o, g in accesses.items() if o.display_name == name]
    return update_op(group)


class TestUpdateOp:
    """The array recognizer, called on one object's in-loop accesses."""

    def test_two_updates_with_one_op(self):
        assert array_update_op(
            "h[k[i]] = h[k[i]] + 1; h[i] = a[i] + h[i];"
        ) == "add"

    def test_mixed_ops_rejected(self):
        assert array_update_op(
            "h[k[i]] = h[k[i]] + 1; h[i] = h[i] * 2;"
        ) is None

    def test_call_touching_the_array_rejected(self):
        assert array_update_op("h[k[i]] = h[k[i]] + 1; touch(h);") is None

    def test_reversed_subtraction_rejected(self):
        assert array_update_op("h[k[i]] = a[i] - h[k[i]];") is None

    def test_conditional_update_keeps_its_op(self):
        assert array_update_op(
            "if (a[i] > 0) { h[k[i]] = max(h[k[i]], a[i]); }"
        ) == "max"

    @pytest.mark.parametrize("store_between, expected", [
        (False, "add"), (True, None),
    ])
    def test_store_between_subscript_reloads(self, store_between, expected):
        """``h[k] = h[k] + 1`` re-loads ``k`` for each subscript; a store
        to ``k`` between the two loads makes them different slots."""
        module = Module("m")
        builder = IRBuilder(module.create_function("main").create_block("b"))
        h = builder.alloca(ArrayType(INT, 8))
        k = builder.alloca(INT)
        load = builder.load(builder.gep(h, builder.load(k)))
        total = builder.add(load, builder.int(1))
        if store_between:
            builder.store(builder.int(5), k)
        store = builder.store(total, builder.gep(h, builder.load(k)))
        obj = AllocaObject(h)
        accesses = [
            MemoryAccess(load, obj, False, None),
            MemoryAccess(store, obj, True, None),
        ]
        assert update_op(accesses) == expected


#: The identity each operator's per-worker copy starts from.
IDENTITIES = {
    "add": 0, "mul": 1, "min": float("inf"), "max": float("-inf"),
    "and": -1, "or": 0, "xor": 0,
}


class TestIdentitySlots:
    @pytest.mark.parametrize("op", sorted(IDENTITIES))
    @pytest.mark.parametrize("value_type, slots, elements", [
        (INT, 1, INT),
        (FLOAT, 1, FLOAT),
        (ArrayType(ArrayType(FLOAT, 3), 2), 6, FLOAT),
    ], ids=["int", "float", "float[2][3]"])
    def test_every_slot_holds_the_identity(
        self, op, value_type, slots, elements
    ):
        identity = IDENTITIES[op]
        if elements == FLOAT:
            identity = float(identity)
        copy = identity_slots(value_type, op)
        assert copy == [identity] * slots
        assert all(type(slot) is type(identity) for slot in copy)

    def test_unknown_op_has_no_identity(self):
        with pytest.raises(PlanError, match="no identity"):
            identity_slots(INT, "sub")


class TestPrivatization:
    def test_defined_before_use_and_dead_after(self):
        _, privatizable = analyze(
            "global a: int[4];\n"
            "func main() { for i in 0..4 {\n"
            "  var t: int = a[i] * 2;\n"
            "  a[i] = t + 1;\n"
            "} }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" in names

    def test_liveout_scalar_not_privatizable(self):
        _, privatizable = analyze(
            "func main() { var t: int = 0;\n"
            "for i in 0..4 { t = i; } print(t); }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" not in names

    def test_use_before_def_not_privatizable(self):
        _, privatizable = analyze(
            "func main() { var t: int = 0;\n"
            "for i in 0..4 { var x: int = t + 1; t = x; } }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" not in names

    def test_def_dominating_use_across_blocks(self):
        _, privatizable = analyze(
            "global a: int[8];\n"
            "func main() { for i in 0..8 {\n"
            "  var t: int = a[i];\n"
            "  if (t > 2) { a[i] = t * 2; }\n"
            "} }"
        )
        names = {o.display_name for o in privatizable}
        assert "t" in names
