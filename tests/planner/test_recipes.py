"""Recipes and region descriptors are frozen plan records: a changed
one is a new one."""

import dataclasses

import pytest

from repro.frontend import compile_source
from repro.planner.plans import RegionDescriptor
from repro.planner.recipes import (
    LoopParallelization,
    recipes_from_annotations,
)
from repro.util.errors import PlanError

SOURCE = """
func main() {
  var s: int = 0;
  pragma omp parallel_for reduction(+: s)
  for i in 0..16 { s = s + i; }
  print(s);
}
"""


def _region():
    module = compile_source(SOURCE)
    (region,) = recipes_from_annotations(module.function("main"))
    return region


def _recipe():
    (recipe,) = _region().recipes
    return recipe


def test_a_recipe_field_cannot_be_assigned():
    region = _region()
    (recipe,) = region.recipes
    for record, field, value in (
        (recipe, "chunk", 5),
        (recipe, "reductions", ()),
        (region, "recipes", ()),
        (region, "tile", 4),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
    assert recipe.chunk == 1 and region.recipes == (recipe,)
    assert region.headers == (recipe.header,)


def test_storage_sets_are_tuples():
    recipe = LoopParallelization(header="h", privatized=["x"],
                                 reductions=[("s", "add")])
    assert recipe.privatized == ("x",) and recipe.reductions == (("s", "add"),)
    region = RegionDescriptor(recipes=[recipe])
    assert region.recipes == (recipe,)
    assert type(recipes_from_annotations(
        compile_source(SOURCE).function("main")
    )) is tuple


def test_headers_are_the_recipes_headers():
    """A descriptor's headers and label come from its member recipes,
    so the two cannot disagree; fusion concatenates recipes."""
    first, second = (LoopParallelization(header=h) for h in ("a", "b"))
    fused = dataclasses.replace(
        RegionDescriptor(recipes=(first,)),
        recipes=(first, second),
    )
    assert fused.headers == ("a", "b") and fused.label == "a+b"


def test_descriptors_compare_by_what_they_dispatch():
    """The witness is evidence, not dispatch: two descriptors differing
    only there are equal (and share one prepared tuple)."""
    recipe = _recipe()
    plain = RegionDescriptor(recipes=(recipe,))
    witnessed = RegionDescriptor(recipes=(recipe,), witness="aligned")
    assert plain == witnessed and hash(plain) == hash(witnessed)
    assert plain != dataclasses.replace(plain, tile=4)
    assert plain != dataclasses.replace(plain, backend_override="threads")


def test_zero_or_negative_chunk_rejected():
    for chunk in (0, -3):
        with pytest.raises(PlanError, match=rf"loop h: chunk.*{chunk}"):
            LoopParallelization(header="h", chunk=chunk)
        with pytest.raises(PlanError, match="chunk"):
            dataclasses.replace(_recipe(), chunk=chunk)
    for chunk in (2.5, True, None):
        with pytest.raises(PlanError, match="chunk"):
            LoopParallelization(header="h", chunk=chunk)
