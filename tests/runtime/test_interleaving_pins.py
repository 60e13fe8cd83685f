"""The seeded oracle's interleavings, pinned step for step.

``golden_interleavings.json`` holds, per (program, schedule, workers,
seed) on ``backend="simulated", compile_regions=False``, ``"<steps>
<hash>"``: the step count and a hash of ``(output, steps, per-region
per-worker steps, final value of every global)``.  The NAS kernels pin the step accounting; being
race-free they print the same under *any* schedule, so what pins the
*draws* are the racy programs — the four wrong plans of
``test_adversarial_plans.py``, the unlocked histogram of
``test_executor.py`` and a race next to a critical section — where one
changed scheduler decision changes the final state.  The last test
shows that: two steppers that differ from the shipped one by a single
habit fail the pins.

Regenerate (only when a change is *meant* to move the interleaving)::

    PYTHONPATH=src:tests python tests/runtime/test_interleaving_pins.py
"""

import hashlib
import json
import os
import random

import pytest

from repro import Session
from repro.frontend import compile_source
from repro.planner.recipes import LoopParallelization
from repro.runtime import backends
from repro.runtime.executor import ParallelInterpreter
from repro.planner.recipes import recipes_from_annotations
from repro.util.errors import ReproError
from repro.workloads import kernel_names

import test_adversarial_plans as wrong
from support.plans import prepared
from test_executor import CRITICAL_HISTOGRAM

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_interleavings.json"
)

NAS_SEEDS = range(4)
NAS_WORKERS = (2, 3, 4)
RACY_SEEDS = range(32)
RACY_WORKERS = 4

UNLOCKED_HISTOGRAM = CRITICAL_HISTOGRAM.replace(
    "pragma omp critical\n    { hist[b] = hist[b] + 1; }",
    "hist[b] = hist[b] + 1;",
).replace("key[s] = (s * 37 + 11) % 8;", "key[s] = 0;")

#: A lost-update race on ``total`` beside a correctly locked histogram:
#: workers queue on the lock, so the candidate set shrinks to one and
#: grows again *inside* the region — the only place a draw skipped at
#: ``n == 1`` shifts every later decision.
RACE_BESIDE_A_LOCK = """
global key: int[64];
global hist: int[8];
global total: int[1];

func main() {
  for s in 0..64 {
    key[s] = (s * 37 + 11) % 8;
  }
  pragma omp for
  for j in 0..64 {
    var b: int = key[j];
    pragma omp critical
    { hist[b] = hist[b] + 1; }
    total[0] = total[0] + b;
  }
  print(hist[0], hist[1], hist[2], hist[3], total[0]);
}
"""


def _zero_seeded(module):
    function = module.function("main")
    header = wrong._loop_header(function)
    annotation = next(
        a for a in function.annotations if a.loop_header == header
    )
    return [LoopParallelization(
        header=header, privatized=[annotation.binding("seed")]
    )]


def _source_plan(module):
    return recipes_from_annotations(module.function("main"))


#: name -> (source, module -> recipes)
RACY = {
    "missing-reduction": (wrong.MISSING_REDUCTION, wrong._bare_recipe),
    "missing-privatization": (
        wrong.MISSING_PRIVATIZATION, wrong._bare_recipe
    ),
    "racy-lastprivate": (wrong.RACY_LASTPRIVATE, wrong._bare_recipe),
    "unseeded-firstprivate": (wrong.UNSEEDED_FIRSTPRIVATE, _zero_seeded),
    "unlocked-histogram": (UNLOCKED_HISTOGRAM, wrong._bare_recipe),
    "race-beside-a-lock": (RACE_BESIDE_A_LOCK, _source_plan),
}


def _record(module, recipes, workers, seed, schedule="static"):
    interp = ParallelInterpreter(
        module, recipes, workers=workers, seed=seed, backend="simulated",
        schedule=schedule, compile_regions=False,
    )
    try:
        result = interp.run("main")
    except ReproError as error:
        return f"error: {error}"
    state = (
        result.output,
        result.steps,
        [[row["steps"] for row in region.per_worker]
         for region in result.parallel_regions],
        [(name, list(interp._global_storage[name]))
         for name in sorted(module.globals)],
    )
    digest = hashlib.sha256(repr(state).encode()).hexdigest()[:16]
    return f"{result.steps} {digest}"


def nas_pins(kernel):
    session = Session.from_kernel(
        kernel, opt_level=2, abstractions=("PS-PDG",),
        compile_regions=False,
    )
    recipes = session.region_recipes["PS-PDG"]
    schedules = ("static",)
    if kernel in ("IS", "LU"):
        schedules += ("dynamic", "guided")
    return {
        f"{schedule}/w{workers}/s{seed}": _record(
            session.module, recipes, workers, seed, schedule
        )
        for schedule in schedules
        for workers in NAS_WORKERS
        for seed in NAS_SEEDS
    }


def racy_pins(name):
    source, build = RACY[name]
    pins = {}
    for seed in RACY_SEEDS:
        module = compile_source(source)
        pins[f"s{seed}"] = _record(
            module, prepared(module, build(module)), RACY_WORKERS, seed
        )
    return pins


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_program():
    assert sorted(_golden()) == sorted([*kernel_names(), *RACY])


@pytest.mark.parametrize("kernel", kernel_names())
def test_nas_interleavings_match_golden(kernel):
    assert nas_pins(kernel) == _golden()[kernel]


@pytest.mark.parametrize("name", sorted(RACY))
def test_racy_interleavings_match_golden(name):
    assert racy_pins(name) == _golden()[name]


@pytest.mark.parametrize("name", sorted(RACY))
def test_racy_pins_are_not_one_state(name):
    # A program every seed leaves in one state would pin no draw.
    if name == "unseeded-firstprivate":
        pytest.skip("deterministically wrong: the same state every seed")
    assert len(set(_golden()[name].values())) > 1


class _FirstCandidate(random.Random):
    """The stepper that always runs ``candidates[0]``."""

    def getrandbits(self, k):
        return 0


class _NoDrawForOne(random.Random):
    """The stepper that skips the draw when one worker can run
    (``n == 1`` is the only candidate count one bit wide)."""

    def getrandbits(self, k):
        return 0 if k == 1 else super().getrandbits(k)


@pytest.mark.parametrize("mutant", (_FirstCandidate, _NoDrawForOne))
def test_a_stepper_with_other_draws_fails_the_pins(mutant, monkeypatch):
    class _Random:
        Random = mutant

    monkeypatch.setattr(backends, "random", _Random)
    golden = _golden()
    assert any(racy_pins(name) != golden[name] for name in sorted(RACY))


if __name__ == "__main__":
    pins = {kernel: nas_pins(kernel) for kernel in kernel_names()}
    pins.update({name: racy_pins(name) for name in sorted(RACY)})
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
