"""Parallelization-option counting (paper §6.2, Fig. 13).

The enumeration rules, each implementing a sentence of §6.2:

* "For DOALL loops, the number of options is at most 56 (cores) x 8 (chunk
  sizes considered)" — :func:`doall_options`.
* "The options available to HELIX is the possible number of sequential
  segments of that loop (a sequential segment is a slice of the loop that
  includes at least one sequential SCC).  Furthermore, we consider running
  these sequential segments in parallel up to 56 cores" —
  :func:`helix_options`: a loop with ``k`` sequential SCCs can be sliced
  into 1..k sequential segments, each choice runnable on up to 56 cores.
* "The options available to DSWP is the number of pipeline stages (each
  stage has at least one SCC) up to 56 cores" — :func:`dswp_options`.
* The OpenMP source plan's options are what environment variables can
  still change: thread count x chunking for each loop the *programmer*
  parallelized — :func:`openmp_options`.

Loops qualify when their run-time coverage is at least 1% (§6.1).
"""

import dataclasses

from repro.frontend.directives import LOOP_INDEPENDENCE_KINDS
from repro.planner.classify import classify_loop
from repro.planner.machine import DEFAULT_MACHINE


def doall_options(machine):
    return machine.cores * machine.chunk_choices


def helix_options(classification, machine):
    sequential = len(classification.sequential_sccs)
    if sequential == 0:
        # No sequential SCC but unknown trip count: one segment layout.
        sequential = 1
    return sequential * machine.cores


def dswp_options(classification, machine):
    stages = min(len(classification.sccs), machine.cores)
    return max(0, stages - 1)  # pipelines need at least two stages


def options_for_loop(classification, machine=DEFAULT_MACHINE):
    """Options one loop contributes under one dependence view."""
    if classification.doall_legal:
        return doall_options(machine)
    return helix_options(classification, machine) + dswp_options(
        classification, machine
    )


def worksharing_annotated_headers(function):
    """Headers of loops the programmer parallelized (worksharing kinds)."""
    headers = set()
    for annotation in function.annotations:
        if (
            annotation.directive.kind in LOOP_INDEPENDENCE_KINDS
            and annotation.loop_header is not None
        ):
            headers.add(annotation.loop_header)
    return headers


def openmp_options(function, loops, machine=DEFAULT_MACHINE):
    """Environment-variable options of the source plan, per loop."""
    annotated = worksharing_annotated_headers(function)
    return {
        loop.header.name: (
            machine.cores * machine.chunk_choices
            if loop.header.name in annotated
            else 0
        )
        for loop in loops
    }


@dataclasses.dataclass
class OptionReport:
    """Per-benchmark option totals for every abstraction (one Fig. 13 bar group)."""

    benchmark: str
    per_loop: dict  # header -> {abstraction -> options}
    totals: dict  # abstraction -> total options

    def rows(self):
        for header in sorted(self.per_loop):
            yield (header, self.per_loop[header])


#: Minimum share of the profiled dynamic instructions for a loop to be a
#: planning candidate (§6.1's 1 %).
MIN_COVERAGE = 0.01


def candidate_loops(loops, profile):
    """Loops with >= ``MIN_COVERAGE`` of the profiled dynamic instructions."""
    total = max(1, profile.shapes().total)
    work = profile.header_totals()
    return [
        loop
        for loop in loops
        if work.get(loop.header.name, 0) / total >= MIN_COVERAGE
    ]


def count_options(
    benchmark_name,
    function,
    loops,
    profile,
    views,
    machine=DEFAULT_MACHINE,
):
    """Build an :class:`OptionReport` over the given dependence views.

    ``views`` maps abstraction name -> DependenceView.  The "OpenMP"
    abstraction is always included from the source annotations.
    """
    candidates = candidate_loops(loops, profile)
    source_options = openmp_options(function, candidates, machine)

    per_loop = {}
    totals = dict.fromkeys(["OpenMP", *views], 0)
    for loop in candidates:
        header = loop.header.name
        row = {"OpenMP": source_options[header]}
        totals["OpenMP"] += row["OpenMP"]
        for name, view in views.items():
            row[name] = options_for_loop(classify_loop(view, loop), machine)
            totals[name] += row[name]
        per_loop[header] = row
    return OptionReport(benchmark_name, per_loop, totals)
