"""The (loop, object) deletion sweep: does a lost edge ever go unseen?

For every loop some view (PDG, J&K, PS-PDG) does not call DOALL, and
every memory object with edges carried at that loop, the sweep deletes
that object's carried edges at the loop from a copy of the sequential
PDG, rebuilds the PS-PDG from the copy (``PSPDGBuilder``) and
re-classifies the loop under all three views.  A view that now calls
the loop DOALL licenses the bare plan ``LoopParallelization(header=…)``;
the ``simulated`` oracle runs it over ``SEEDS`` and must see it diverge
from the sequential run — in its output or its final globals — or raise.
A flip the oracle cannot refute is a finding, recorded with its reason
in ``tests/support/redundant_edges.json``:

* ``memdep`` — the edge over-approximates: no two iterations touch one
  slot, but the subscript test could not prove it (a non-affine index);
* ``oracle`` — the conflict is real, but no seed can show it: the
  writes all store the same values on this input, a ``critical`` lock
  the runtime always takes makes the update orderless, or the schedule
  keeps the racing iterations apart (``chunk`` names one that does not).

The programs are the eight NAS kernels, the Fig. 11 necessity gallery
and ``progen.generate_nest_program`` at seeds ``0..7``: 124, 16 and 44
(loop, object) groups.  Of those 184, 155 flip no verdict — a loss the
classification cannot see at all, which only an executable semantics
of the graph itself can catch.  Of the 29 flips, 12 diverge and 17 are
recorded findings (8 ``memdep``, 9 ``oracle``).
"""

import functools
import json
import os

import pytest

from repro import Session
from repro.core.builder import PSPDGBuilder
from repro.pdg.graph import EDGE_MEMORY, PDG
from repro.planner.classify import classify_loop
from repro.planner.recipes import LoopParallelization
from repro.planner.views import VIEW_FEATURES, DependenceView
from repro.runtime.executor import ParallelInterpreter
from repro.util.errors import ReproError
from repro.workloads import PAIRS, kernel_names
from support.conformance import outputs_close, values_close
from support.plans import prepared
from support.progen import generate_nest_program

FINDINGS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "support", "redundant_edges.json"
)

SEEDS = range(4)
WORKERS = 4
NEST_SEEDS = range(8)

SOURCES = {
    **{
        f"{pair.key}-{label}": source
        for pair in PAIRS
        for label, source in pair.sources().items()
    },
    **{f"nest-{seed}": generate_nest_program(seed) for seed in NEST_SEEDS},
}
PROGRAMS = [*kernel_names(), *SOURCES]


def _session(name):
    if name in SOURCES:
        return Session.from_source(SOURCES[name], name=name)
    return Session.from_kernel(name)


@functools.lru_cache(maxsize=None)
def _swept(name):
    session = _session(name)
    return (session, *sweep(session))


def _views(pspdg):
    return {name: DependenceView(name, pspdg) for name in VIEW_FEATURES}


def _carried_on(edge, loop, obj):
    return (edge.kind == EDGE_MEMORY and loop in edge.carried_loops
            and edge.obj == obj)


def sweep(session):
    """``(groups, flips)``: the number of (loop, object) groups, and per
    group that flips a verdict ``(loop, object, views now DOALL)``."""
    pdg = session.pdg
    views = _views(session.pspdg)
    groups, flips = 0, []
    for loop in session.loops:
        before = {
            name: classify_loop(view, loop).doall_legal
            for name, view in views.items()
        }
        if all(before.values()):
            continue
        objects = []
        for edge in pdg.edges:
            if (edge.kind == EDGE_MEMORY and loop in edge.carried_loops
                    and edge.obj not in objects):
                objects.append(edge.obj)
        for obj in objects:
            groups += 1
            pruned = PDG(pdg.analyses)
            for edge in pdg.edges:
                if not _carried_on(edge, loop, obj):
                    pruned.add_edge(edge)
            after = _views(PSPDGBuilder(pruned).build())
            flipped = [
                name for name, view in after.items()
                if not before[name] and classify_loop(view, loop).doall_legal
            ]
            if flipped:
                flips.append((loop, obj, flipped))
    return groups, flips


def _final_state(session, recipes, seed):
    loops = session.analyses.loops_by_header
    interp = ParallelInterpreter(
        session.module, prepared(session.module, recipes, "main", loops),
        workers=WORKERS, seed=seed, backend="simulated",
        analyses=session.analyses,
    )
    output = interp.run("main").output
    return output, [
        list(interp._global_storage[name])
        for name in sorted(session.module.globals)
    ]


def _same_state(state, expected):
    (output, values), (want_output, want_values) = state, expected
    return outputs_close(output, want_output) and all(
        len(got) == len(want) and all(map(values_close, got, want))
        for got, want in zip(values, want_values)
    )


def divergent_seeds(session, header, chunk=1):
    """Seeds on which the bare plan raises or leaves another state."""
    expected = _final_state(session, (), 0)
    recipe = LoopParallelization(header=header, chunk=chunk)
    seeds = []
    for seed in SEEDS:
        try:
            state = _final_state(session, [recipe], seed)
        except ReproError:
            seeds.append(seed)
            continue
        if not _same_state(state, expected):
            seeds.append(seed)
    return seeds


def _key(program, loop, obj):
    return f"{program} {loop.header.name} {obj.display_name}"


def _findings():
    with open(FINDINGS_PATH) as handle:
        return {entry["group"]: entry for entry in json.load(handle)}


def test_every_finding_names_a_swept_program_and_a_kind():
    findings = _findings()
    for key, entry in findings.items():
        assert key.split()[0] in PROGRAMS, key
        assert entry["finding"] in ("memdep", "oracle"), key
        assert entry["reason"], key


@pytest.mark.parametrize("name", PROGRAMS)
def test_each_lost_edge_is_caught_or_explained(name):
    session, _groups, flips = _swept(name)
    findings = _findings()
    stale = {key for key in findings if key.split()[0] == name}
    unexplained = []
    for loop, obj, views in flips:
        key = _key(name, loop, obj)
        if divergent_seeds(session, loop.header.name):
            continue  # caught: a recorded finding for it is stale
        entry = findings.get(key)
        if entry is None:
            unexplained.append(f"{key} (now DOALL under {views})")
            continue
        stale.discard(key)
        assert entry["views"] == views, key
        if "chunk" in entry:
            # The race is real: another schedule exposes it.
            assert divergent_seeds(
                session, loop.header.name, chunk=entry["chunk"]
            ), key
    assert not unexplained, (
        "a deleted edge went unseen by the oracle: " + "; ".join(unexplained)
    )
    assert not stale, f"findings that no longer hold: {sorted(stale)}"


def test_the_counts_in_this_docstring_hold():
    groups = flips = 0
    for name in PROGRAMS:
        _, swept_groups, swept_flips = _swept(name)
        groups += swept_groups
        flips += len(swept_flips)
    assert (groups, groups - flips, flips) == (184, 155, 29)
