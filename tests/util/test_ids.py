"""IdAllocator determinism."""

from repro.util import IdAllocator


def test_unprefixed_ids_are_integers():
    ids = IdAllocator()
    assert ids.fresh() == 0
    assert ids.fresh() == 1


def test_prefixed_ids_are_strings():
    ids = IdAllocator("ctx")
    assert ids.fresh() == "ctx0"
    assert ids.fresh() == "ctx1"


def test_independent_allocators_do_not_share_state():
    a = IdAllocator("a")
    b = IdAllocator("a")
    assert a.fresh() == "a0"
    assert b.fresh() == "a0"
