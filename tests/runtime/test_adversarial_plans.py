"""Adversarial plans: the conformance harness must be able to *fail*.

Each test hand-builds a deliberately wrong :class:`LoopParallelization`
(missing privatization, missing reduction, racy lastprivate, unseeded
firstprivate) and runs it under the ``simulated`` oracle across seeds.
A wrong plan must either raise (a detected fault) or diverge from the
sequential output on at least one seed — the same comparator the
conformance suite uses.  Control cases check that the *correct* recipe
for each program never diverges, so a failure here means the oracle has
lost its teeth, not that the programs are broken.

The graph has teeth too: deleting the dependence a loop carries turns it
DOALL under the PDG view, and the oracle refutes the plan that follows.
So does the outer loop of a nest whose inner loop is DOALL but whose
dependence runs across outer iterations: the graph keeps it serial, and
forced parallel it diverges.
"""

from repro.analysis.record import FunctionAnalyses
from repro.pdg.builder import pdg_from_analyses
import pytest

from repro.core.builder import PSPDGBuilder
from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.pdg.graph import EDGE_MEMORY, PDG
from repro.planner.classify import classify_loop
from repro.planner.recipes import (
    LoopParallelization,
    parallelization_from_annotation,
)
from repro.planner.views import DependenceView
from repro.runtime import run_parallel
from repro.util.errors import ReproError
from support.conformance import outputs_close
from support.plans import prepared

SEEDS = range(10)
WORKERS = 4

MISSING_REDUCTION = """
func main() {
  var s: int = 0;
  pragma omp parallel_for reduction(+: s)
  for i in 0..64 {
    s = s + i;
  }
  print(s);
}
"""

MISSING_PRIVATIZATION = """
global v: int[64];

func main() {
  var t: int[8];
  pragma omp parallel_for private(t)
  for p in 0..8 {
    for j in 0..8 { t[j] = p * 8 + j; }
    for j in 0..8 { v[p * 8 + j] = t[j] * 2; }
  }
  print(v[0], v[31], v[63]);
}
"""

RACY_LASTPRIVATE = """
global a: int[16];

func main() {
  var v: int = 0;
  for i in 0..16 { a[i] = i * 3; }
  pragma omp parallel_for lastprivate(v)
  for j in 0..16 {
    v = a[j];
  }
  print(v);
}
"""

UNSEEDED_FIRSTPRIVATE = """
global a: int[16];

func main() {
  var seed: int = 5;
  pragma omp parallel_for firstprivate(seed)
  for i in 0..16 {
    a[i] = seed + i;
  }
  print(a[0], a[15]);
}
"""


#: No pragma: iteration i reads what iteration i - 1 wrote (carried RAW).
CARRIED_RAW = """
global a: int[16];

func main() {
  for i in 1..16 {
    a[i] = a[i - 1] + 1;
  }
  print(a[15]);
}
"""

#: More carried dependences, one loop each, none of them declared.
CARRIED = {
    # RAW at distance two: the even and odd chains each recur.
    "stride2_raw": """
global a: int[16];

func main() {
  a[1] = 1;
  for i in 2..16 {
    a[i] = a[i - 2] + 3;
  }
  print(a[14], a[15]);
}
""",
    # A global scalar every iteration reads and writes.
    "scalar_recurrence": """
global s: int;
global a: int[16];

func main() {
  for i in 0..16 {
    s = s * 2 + a[i] + 1;
  }
  print(s);
}
""",
    # WAW on a global scalar: the last iteration's write must win.
    "last_writer": """
global a: int[16];
global last: int;

func main() {
  for i in 0..16 {
    a[i] = i;
    last = a[i] * 3;
  }
  print(last);
}
""",
}


#: The inner loop is DOALL; row t reads row t - 1 one column over, so
#: the outer loop carries a dependence.
NEST_CARRIED_OUTER = """
global m: float[12][16];

func main() {
  for i in 0..16 {
    m[0][i] = float(i) * 0.5;
  }
  for t in 1..12 {
    pragma omp parallel_for
    for i in 0..15 {
      m[t][i] = m[t - 1][i + 1] + float(t);
    }
  }
  print(m[1][0], m[6][7], m[11][3]);
}
"""


def _loop_header(function):
    return next(
        a.loop_header
        for a in function.annotations
        if a.loop_header is not None
    )


def _divergences(source, recipe_builder, seeds=SEEDS, workers=WORKERS):
    """How many seeds produce a fault or a non-sequential result."""
    expected = run_module(compile_source(source)).output
    count = 0
    for seed in seeds:
        module = compile_source(source)
        recipes = recipe_builder(module)
        try:
            result = run_parallel(
                module, prepared(module, recipes), workers=workers,
                seed=seed,
            )
        except ReproError:
            count += 1  # a detected fault is a caught wrong plan
            continue
        if not outputs_close(result.output, expected):
            count += 1
    return count


def _correct_recipes(module):
    function = module.function("main")
    return [
        parallelization_from_annotation(annotation, function)
        for annotation in function.annotations
        if annotation.directive.declares_loop_independence()
        and annotation.loop_header is not None
    ]


def _bare_recipe(module):
    """The wrong plan: parallelize with no data-sharing clauses at all."""
    return [LoopParallelization(header=_loop_header(module.function("main")))]


class TestWrongPlansAreCaught:
    def test_missing_reduction_diverges(self):
        assert _divergences(MISSING_REDUCTION, _bare_recipe) > 0

    def test_missing_privatization_diverges(self):
        assert _divergences(MISSING_PRIVATIZATION, _bare_recipe) > 0

    def test_racy_lastprivate_diverges(self):
        assert _divergences(RACY_LASTPRIVATE, _bare_recipe) > 0

    def test_unseeded_firstprivate_diverges_every_seed(self):
        def zero_seeded(module):
            function = module.function("main")
            header = _loop_header(function)
            annotation = next(
                a for a in function.annotations if a.loop_header == header
            )
            storage = annotation.binding("seed")
            # Privatized but *not* seeded from the shared value: every
            # worker computes from 0 instead of 5, deterministically wrong.
            return [
                LoopParallelization(header=header, privatized=[storage])
            ]

        assert _divergences(UNSEEDED_FIRSTPRIVATE, zero_seeded) == len(
            list(SEEDS)
        )


class TestCorrectPlansAreNotFlagged:
    """The oracle's teeth cut the right way: correct recipes never diverge."""

    def test_correct_recipes_conform(self):
        for source in (
            MISSING_REDUCTION,
            MISSING_PRIVATIZATION,
            RACY_LASTPRIVATE,
            UNSEEDED_FIRSTPRIVATE,
        ):
            assert _divergences(source, _correct_recipes) == 0


def _pdg_view(pdg):
    return DependenceView("PDG", PSPDGBuilder(pdg).build())


def _assert_deletion_is_caught(source):
    """The loop is not DOALL; without its carried memory edges it is,
    and the bare plan that licenses diverges under the oracle."""
    module = compile_source(source)
    pdg = pdg_from_analyses(FunctionAnalyses(module.function("main"), module))
    (loop,) = pdg.analyses.loops
    assert not classify_loop(_pdg_view(pdg), loop).doall_legal

    pruned = PDG(pdg.analyses)
    for edge in pdg.edges:
        if not (edge.kind == EDGE_MEMORY and loop in edge.carried_loops):
            pruned.add_edge(edge)
    assert len(pruned.edges) < len(pdg.edges)
    assert classify_loop(_pdg_view(pruned), loop).doall_legal

    header = loop.header.name
    assert _divergences(
        source, lambda _module: [LoopParallelization(header=header)]
    ) > 0


class TestDeletedEdgesAreCaught:
    """A dependence edge the graph loses is a wrong plan the oracle sees."""

    def test_deleting_the_carried_raw_edge_is_caught(self):
        _assert_deletion_is_caught(CARRIED_RAW)

    @pytest.mark.parametrize("shape", sorted(CARRIED))
    def test_deleting_a_carried_edge_is_caught(self, shape):
        _assert_deletion_is_caught(CARRIED[shape])


def test_a_forced_nest_outer_loop_diverges():
    """The annotated inner loop conforms; the outer loop is not DOALL on
    the graph, and a bare plan for it diverges under the oracle."""
    module = compile_source(NEST_CARRIED_OUTER)
    function = module.function("main")
    inner = _loop_header(function)
    pdg = pdg_from_analyses(FunctionAnalyses(function, module))
    (outer,) = [
        loop for loop in pdg.analyses.loops
        if loop.header.name != inner
        and any(b.name == inner for b in loop.blocks)
    ]
    assert not classify_loop(_pdg_view(pdg), outer).doall_legal
    assert _divergences(NEST_CARRIED_OUTER, _correct_recipes) == 0
    header = outer.header.name
    assert _divergences(
        NEST_CARRIED_OUTER,
        lambda _module: [LoopParallelization(header=header)],
    ) > 0
