"""The Fig. 11 necessity gallery: five program pairs, one per PS-PDG feature.

Each pair consists of a *fast* and a *slow* program that lower to the same
instruction stream but have different parallel semantics.  Their full
PS-PDGs differ; remove the targeted feature and the two become
indistinguishable — which is exactly the paper's necessity argument,
executed.

Where our IR-identical construction needed an adaptation from the paper's
exact listings, it is noted on the pair:

* **A (hierarchical nodes + undirected edges)**: orderless ``critical``
  vs iteration-``ordered`` update of a shared histogram.
* **B (node traits)**: ``single`` region vs an ``ordered`` region around
  the same output statement (the paper contrasts single vs no-single; the
  ordered region keeps the lowered IR identical while carrying no trait).
* **C (contexts)**: inner loop declared independent (``omp for``) vs the
  same inner loop wrapped in an ``ordered`` region — the independence
  declaration is valid only in the inner-loop context, which is precisely
  what vanishes without contexts.
* **D (data-selector directed edges)**: ``anyvalue`` live-out (any
  iteration's value may propagate) vs ``lastprivate`` (the last
  iteration's value must).
* **E (parallel semantic variables)**: a ``reduction`` under a critical
  update vs the same critical update without the reduction knowledge.
"""

import dataclasses

from repro.core.ablation import (
    without_contexts,
    without_hierarchical_and_undirected,
    without_selectors,
    without_traits,
    without_variables,
)


@dataclasses.dataclass
class NecessityPair:
    """One Fig. 11 row."""

    key: str  # "A".."E"
    feature: str  # human name of the PS-PDG feature demonstrated
    fast_source: str
    slow_source: str
    projection: object  # the "PS-PDG w/o X" function

    def sources(self):
        return {"fast": self.fast_source, "slow": self.slow_source}


_PAIR_A_FAST = """
global data: int[64];
global hist: int[8];

func main() {
  pragma omp parallel_for
  for i in 0..64 {
    var b: int = data[i] % 8;
    pragma omp critical
    { hist[b] = hist[b] + 1; }
  }
  print(hist[0]);
}
"""

_PAIR_A_SLOW = _PAIR_A_FAST.replace("omp critical", "omp ordered")

_PAIR_B_FAST = """
global flag: int;

func main() {
  pragma omp parallel
  {
    pragma omp single
    { print(flag); }
  }
}
"""

_PAIR_B_SLOW = _PAIR_B_FAST.replace("omp single", "omp ordered")

_PAIR_C_FAST = """
global a: int[32];
global b: int[32];

func main() {
  for t in 0..4 {
    pragma omp parallel_for
    for j in 0..32 {
      a[j] = a[j] + b[j];
    }
  }
  print(a[0]);
}
"""

_PAIR_C_SLOW = _PAIR_C_FAST.replace("omp parallel_for", "omp ordered")

_PAIR_D_FAST = """
global a: int[64];

func main() {
  var value: int = 0;
  pragma omp parallel_for anyvalue(value)
  for i in 0..64 {
    value = a[i];
  }
  print(value);
}
"""

_PAIR_D_SLOW = _PAIR_D_FAST.replace("anyvalue(value)", "lastprivate(value)")

_PAIR_E_FAST = """
global a: int[64];

func main() {
  var total: int = 0;
  pragma omp parallel_for reduction(+: total)
  for i in 0..64 {
    pragma omp critical
    { total = total + a[i]; }
  }
  print(total);
}
"""

_PAIR_E_SLOW = _PAIR_E_FAST.replace(" reduction(+: total)", "")


PAIRS = [
    NecessityPair(
        "A",
        "hierarchical nodes + undirected edges",
        _PAIR_A_FAST,
        _PAIR_A_SLOW,
        without_hierarchical_and_undirected,
    ),
    NecessityPair(
        "B", "node traits", _PAIR_B_FAST, _PAIR_B_SLOW, without_traits
    ),
    NecessityPair(
        "C", "contexts", _PAIR_C_FAST, _PAIR_C_SLOW, without_contexts
    ),
    NecessityPair(
        "D",
        "data-selector directed edges",
        _PAIR_D_FAST,
        _PAIR_D_SLOW,
        without_selectors,
    ),
    NecessityPair(
        "E",
        "parallel semantic variables",
        _PAIR_E_FAST,
        _PAIR_E_SLOW,
        without_variables,
    ),
]


def build_pair_sessions(pair):
    """One :class:`repro.Session` per program of a pair (PS-PDG on demand)."""
    from repro.session import Session

    return {
        label: Session.from_source(
            source, name=f"necessity-{pair.key}-{label}"
        )
        for label, source in pair.sources().items()
    }


def demonstrate(pair):
    """Run the necessity check for one pair.

    Returns ``(full_equal, reduced_equal)``; necessity holds when the full
    representations differ but the reduced ones coincide, i.e. the result
    is ``(False, True)``.
    """
    sessions = build_pair_sessions(pair)
    fast, slow = sessions["fast"], sessions["slow"]
    full_equal = fast.signature() == slow.signature()
    reduced_equal = fast.reduced_signature(
        pair.projection
    ) == slow.reduced_signature(pair.projection)
    return full_equal, reduced_equal
