"""Recipes are frozen plan records: a changed recipe is a new one."""

import dataclasses

import pytest

from repro.frontend import compile_source
from repro.planner.recipes import (
    LoopParallelization,
    RegionParallelization,
    as_region,
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


def _recipe():
    module = compile_source(SOURCE)
    (recipe,) = recipes_from_annotations(module.function("main"))
    return recipe


def test_a_recipe_field_cannot_be_assigned():
    recipe = _recipe()
    region = as_region(recipe)
    for record, field, value in (
        (recipe, "chunk", 5),
        (recipe, "reductions", ()),
        (region, "recipes", ()),
        (region, "tile", 4),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
    assert recipe.chunk == 1 and region.recipes == (recipe,)


def test_storage_sets_are_tuples():
    recipe = LoopParallelization(header="h", privatized=["x"],
                                 reductions=[("s", "add")])
    assert recipe.privatized == ("x",) and recipe.reductions == (("s", "add"),)
    region = RegionParallelization(recipes=[recipe])
    assert region.recipes == (recipe,)
    assert type(recipes_from_annotations(
        compile_source(SOURCE).function("main")
    )) is tuple


def test_zero_or_negative_chunk_rejected():
    for chunk in (0, -3):
        with pytest.raises(PlanError, match=rf"loop h: chunk.*{chunk}"):
            LoopParallelization(header="h", chunk=chunk)
        with pytest.raises(PlanError, match="chunk"):
            dataclasses.replace(_recipe(), chunk=chunk)
    for chunk in (2.5, True, None):
        with pytest.raises(PlanError, match="chunk"):
            LoopParallelization(header="h", chunk=chunk)
