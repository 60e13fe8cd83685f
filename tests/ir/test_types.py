"""IR type system: slots, equality, constructors."""

import pytest

from repro.ir import (
    BOOL,
    FLOAT,
    INT,
    VOID,
    ArrayType,
    PointerType,
)


def test_scalar_slots():
    assert INT.slots() == 1
    assert FLOAT.slots() == 1
    assert BOOL.slots() == 1
    assert VOID.slots() == 0


def test_scalar_predicates():
    assert INT.is_scalar()
    assert FLOAT.is_scalar()
    assert BOOL.is_scalar()
    assert not VOID.is_scalar()
    assert not ArrayType(INT, 3).is_scalar()


def test_array_slots_multiply():
    assert ArrayType(INT, 10).slots() == 10
    assert ArrayType(ArrayType(FLOAT, 4), 3).slots() == 12


def test_zero_length_array_allowed():
    assert ArrayType(INT, 0).slots() == 0


def test_negative_array_count_rejected():
    with pytest.raises(ValueError):
        ArrayType(INT, -1)


def test_type_equality_by_value():
    assert ArrayType(INT, 5) == ArrayType(INT, 5)
    assert ArrayType(INT, 5) != ArrayType(INT, 6)
    assert ArrayType(INT, 5) != ArrayType(FLOAT, 5)
    assert PointerType(INT) == PointerType(INT)
    assert PointerType(INT) != PointerType(FLOAT)


def test_types_are_hashable():
    mapping = {ArrayType(INT, 2): "a", PointerType(FLOAT): "b", INT: "c"}
    assert mapping[ArrayType(INT, 2)] == "a"
    assert mapping[PointerType(FLOAT)] == "b"


def test_pointer_slots():
    assert PointerType(ArrayType(INT, 100)).slots() == 1


def test_reprs_are_stable():
    assert repr(ArrayType(INT, 3)) == "[3 x int]"
    assert repr(PointerType(INT)) == "int*"
