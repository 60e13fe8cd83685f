"""Every relaxation the builder logs is licensed by a directive, and
every licensed removal is logged (``support/licenses.py``).

The corpus is NAS8, the Fig. 11 gallery, ``progen`` seeds 0–39 and the
crafted programs below, which carry what those leave out: tasks with
and without ``depend``, a barrier and a spawn, selectors, and two
critical sections of one lock.
"""

import pytest

from repro import Session
from repro.core.model import RELAXATION_FEATURES
from repro.workloads import PAIRS, kernel_names
from support import licenses
from support.progen import generate_program

CRAFTED = {
    "two-sections-one-lock": """
global x: int;
global a: int[16];
func main() {
  pragma omp parallel_for
  for i in 0..16 {
    pragma omp critical(L)
    { x = x + a[i]; }
    a[i] = i;
    pragma omp critical(L)
    { x = x * 2; }
  }
  print(x);
}
""",
    "critical-in-a-time-loop": """
global h: int[4];
func main() {
  for t in 0..3 {
    pragma omp parallel_for
    for i in 0..8 {
      pragma omp critical
      { h[i % 4] = h[i % 4] + 1; }
    }
  }
  print(h[0]);
}
""",
    "sibling-tasks": """
global x: int;
func main() {
  pragma omp parallel
  {
    pragma omp task
    { x = 1; }
    pragma omp task
    { x = 2; }
  }
  print(x);
}
""",
    "tasks-in-a-loop": """
global x: int;
func main() {
  for i in 0..4 {
    pragma omp parallel
    {
      pragma omp task
      { x = i; }
      pragma omp task
      { x = i + 1; }
    }
  }
  print(x);
}
""",
    "depend-tasks": """
global x: int;
func main() {
  pragma omp parallel
  {
    pragma omp task depend(out: x)
    { x = 1; }
    pragma omp task depend(in: x)
    { print(x); }
  }
}
""",
    "tasks-and-a-barrier": """
global x: int;
func main() {
  pragma omp parallel
  {
    pragma omp task
    { x = 1; }
    pragma omp barrier
    pragma omp task
    { x = 2; }
  }
  print(x);
}
""",
    "spawn-and-sync": """
global a: int;
global b: int;
func g(n: int) -> int { return n + 1; }
func main() {
  spawn a = g(3);
  b = g(4);
  sync;
  print(a + b);
}
""",
    "anyvalue-in-ordered": """
global a: int[8];
func main() {
  var v: int = 0;
  pragma omp parallel_for anyvalue(v)
  for i in 0..8 {
    pragma omp ordered
    { v = a[i]; }
  }
  print(v);
}
""",
    "selectors": """
global a: int[8];
func main() {
  var v: int = 0;
  var seed: int = 3;
  pragma omp parallel_for lastprivate(v) firstprivate(seed)
  for i in 0..8 { v = a[i] + seed; }
  print(v);
}
""",
}

SOURCES = {
    **{
        f"{pair.key}-{label}": source
        for pair in PAIRS
        for label, source in pair.sources().items()
    },
    **{f"progen-{seed}": generate_program(seed) for seed in range(40)},
    **CRAFTED,
}


PROGRAMS = [*kernel_names(), *SOURCES]


def _pspdg(name):
    if name in SOURCES:
        return Session.from_source(SOURCES[name], name=name).pspdg
    return Session.from_kernel(name).pspdg


@pytest.mark.parametrize("name", PROGRAMS)
def test_the_log_is_exactly_what_the_directives_license(name):
    pspdg = _pspdg(name)
    assert licenses.unlicensed(pspdg) == []
    assert licenses.unlogged(pspdg) == []


def test_the_corpus_relaxes_every_feature():
    relaxed = {
        feature for name in PROGRAMS for feature in licenses.logged(_pspdg(name))
    }
    assert relaxed == set(RELAXATION_FEATURES)


def test_a_lock_across_regions_is_a_named_exception():
    _licence, excepted = licenses.licensed(_pspdg("two-sections-one-lock"))
    assert excepted
