"""Dependence views: what PDG, J&K, and PS-PDG each see."""

import itertools

import pytest

from repro import Session
from repro.analysis.affine import iteration_range
from repro.core.model import RELAXATION_FEATURES
from repro.planner.classify import classify_loop
from repro.planner.views import VIEW_FEATURES
from repro.planner.classify import loop_instructions
from repro.workloads import PAIRS, kernel_names
from support import reference_views as reference
from support.progen import generate_nest_program, generate_program


def setup_for(source):
    return Session.from_source(source, name="t")


REDUCTION_UNDER_WORKSHARING = (
    "func main() { var s: int = 0;\n"
    "pragma omp for reduction(+: s)\n"
    "for i in 0..8 { s = s + i; }\nprint(s); }"
)

PRIVATE_ARRAY = (
    "global v: int[64];\n"
    "func main() {\n"
    "  var t: int[8];\n"
    "  pragma omp parallel_for private(t)\n"
    "  for p in 0..8 {\n"
    "    for j in 0..8 { t[j] = p + j; }\n"
    "    for j in 0..8 { v[p * 8 + j] = t[j]; }\n"
    "  }\n"
    "}"
)


SIBLING_TASKS_IN_LOOP = (
    "global x: int;\n"
    "func main() {\n"
    "  for i in 0..4 {\n"
    "    pragma omp parallel\n"
    "    {\n"
    "      pragma omp task\n"
    "      { x = i; }\n"
    "      pragma omp task\n"
    "      { x = i + 1; }\n"
    "    }\n"
    "  }\n"
    "  print(x);\n"
    "}"
)


def carried_count(setup, view_name, loop_index=0):
    loop = [l for l in setup.loops if l.parent is None][loop_index]
    return len(setup.views[view_name].carried_edges(loop))


def test_views_agree_on_unannotated_code():
    setup = setup_for(
        "global a: int[8];\nglobal k: int[8];\n"
        "func main() { for i in 0..8 { a[k[i]] = a[k[i]] + 1; } }"
    )
    assert carried_count(setup, "PDG") == carried_count(setup, "J&K")
    assert carried_count(setup, "PDG") == carried_count(setup, "PS-PDG")


def test_jk_between_pdg_and_pspdg():
    setup = setup_for(PRIVATE_ARRAY)
    pdg = carried_count(setup, "PDG")
    jk = carried_count(setup, "J&K")
    pspdg = carried_count(setup, "PS-PDG")
    assert pspdg <= jk <= pdg
    # The private-array semantics is invisible to J&K: it keeps carried
    # dependences on t that the PS-PDG removed.
    assert pspdg < jk


def test_scalar_reduction_breakable_by_all_views():
    setup = setup_for(REDUCTION_UNDER_WORKSHARING)
    # The textbook reduction recognition applies to every view, so no
    # carried dependences remain anywhere.
    for name in ("PDG", "J&K", "PS-PDG"):
        assert carried_count(setup, name) == 0, name


def test_serialized_uids_only_in_pspdg_view():
    setup = setup_for(
        "global h: int[4];\n"
        "func main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..8 {\n"
        "    pragma omp critical\n"
        "    { h[i % 4] = h[i % 4] + 1; }\n"
        "  }\n"
        "}"
    )
    loop = setup.loops[0]
    assert setup.views["PDG"].serialized_uids(loop) == frozenset()
    assert setup.views["J&K"].serialized_uids(loop) == frozenset()
    serialized = setup.views["PS-PDG"].serialized_uids(loop)
    assert serialized
    # The serialized set is the locked dataflow chain, not the whole
    # region: it must be smaller than the loop body.
    loop_uids = {i.uid for i in loop.instructions()}
    assert serialized < loop_uids


def test_task_independence_drops_intra_pairs_only_in_pspdg_view():
    setup = setup_for(SIBLING_TASKS_IN_LOOP)
    loop = setup.loops[0]
    intra = {
        name: set(view.intra_edges(loop))
        for name, view in setup.views.items()
    }
    assert intra["PDG"] == intra["J&K"]
    # The write of the first task no longer precedes the second's.
    assert intra["PS-PDG"] < intra["PDG"]


def test_view_names():
    setup = setup_for("func main() { for i in 0..4 { } }")
    assert {v.name for v in setup.views.values()} == {
        "PDG",
        "J&K",
        "PS-PDG",
    }
    # A view's features are ones the builder logs, or it relaxes nothing.
    for features in VIEW_FEATURES.values():
        assert set(features) <= set(RELAXATION_FEATURES)


# -- the buckets answer what the whole-graph scans answered -------------------

_GALLERY = {
    f"gallery-{pair.key}-{label}": source
    for pair in PAIRS
    for label, source in pair.sources().items()
}
_GENERATED = {
    **{f"progen-{seed}": generate_program(seed) for seed in range(10)},
    **{f"nest-{seed}": generate_nest_program(seed) for seed in range(10)},
    "tasks-in-loop": SIBLING_TASKS_IN_LOOP,
}


def _session(name):
    if name in kernel_names():
        return Session.from_kernel(name)
    return Session.from_source({**_GALLERY, **_GENERATED}[name], name=name)


def _summary(classification):
    return (
        [
            ([inst.uid for inst in scc.instructions], scc.is_sequential)
            for scc in classification.sccs
        ],
        classification.carried_edge_count,
        classification.serialized_uids,
    )


@pytest.mark.parametrize(
    "name", [*kernel_names(), *sorted(_GALLERY), *sorted(_GENERATED)]
)
def test_buckets_answer_what_the_scans_answered(name):
    session = _session(name)
    for loop in session.loops:
        for view in session.views.values():
            where = (name, loop.header.name, view.name)
            assert loop_instructions(loop) == reference.loop_instructions(
                view, loop
            ), where
            assert view.carried_edges(loop) == reference.carried_edges(
                view, loop
            ), where
            assert view.intra_edges(loop) == reference.intra_edges(
                view, loop
            ), where
            classification = classify_loop(view, loop)
            assert _summary(classification) == reference.classify(
                view, loop
            ), where
            for scc in classification.sccs:
                assert scc.uids == {inst.uid for inst in scc.instructions}


class _ScanCounter(list):
    """A graph's edge list that counts how often it is walked."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_the_views_of_a_session_walk_each_graph_once():
    session = Session.from_kernel("BT")
    pdg, pspdg = session.pdg, session.pspdg
    pdg.edges = _ScanCounter(pdg.edges)
    pspdg.relaxations = _ScanCounter(pspdg.relaxations)
    pspdg.directed_edges = _ScanCounter(pspdg.directed_edges)
    assert len(session.loops) > 2
    assert set(session.views) == set(VIEW_FEATURES)
    for view in session.views.values():
        for loop in session.loops:
            classify_loop(view, loop)
    # One index serves all three views.
    assert pdg.edges.scans == 1
    assert pspdg.relaxations.scans == 1
    # Every view is the PDG minus part of the log: none reads the
    # PS-PDG's own edges.
    assert pspdg.directed_edges.scans == 0


# -- one classification per distinct graph, Tarjan only where carried --------


def _memo_key(view, loop):
    return (
        loop.header.name, view.relaxing(loop), view.serialized_uids(loop)
    )


@pytest.mark.parametrize(
    "name", [*kernel_names(), *sorted(_GALLERY), *sorted(_GENERATED)]
)
def test_shared_lazy_classifications_equal_per_view_tarjan(name):
    """After planning and option counting have read what they read, every
    loop x view classification is the from-scratch scan and Tarjan of that
    view, ``doall_legal`` included, and two views share one object exactly
    where their memo keys agree."""
    session = _session(name)
    session.critical_paths()
    session.options()
    views = list(session.views.values())
    for loop in session.loops:
        for view in views:
            where = (name, loop.header.name, view.name)
            classification = classify_loop(view, loop)
            doall_legal = classification.doall_legal
            sccs, carried, serialized = reference.classify(view, loop)
            assert doall_legal == (
                iteration_range(loop) is not None
                and not any(sequential for _, sequential in sccs)
            ), where
            assert _summary(classification) == (
                sccs, carried, serialized
            ), where
        for a, b in itertools.combinations(views, 2):
            shared = classify_loop(a, loop) is classify_loop(b, loop)
            assert shared == (
                _memo_key(a, loop) == _memo_key(b, loop)
            ), (name, loop.header.name, a.name, b.name)


def test_nas8_classifies_each_graph_once_and_runs_tarjan_where_carried(
    monkeypatch,
):
    from repro.planner import classify

    counts = {"classify": 0, "tarjan": 0}

    def counted(real, what):
        def call(*args):
            counts[what] += 1
            return real(*args)

        return call

    monkeypatch.setattr(
        classify, "_classify", counted(classify._classify, "classify")
    )
    monkeypatch.setattr(
        classify,
        "strongly_connected_components",
        counted(classify.strongly_connected_components, "tarjan"),
    )
    for name in kernel_names():
        session = Session.from_kernel(name)
        assert len(session.views) == 3
        session.critical_paths()
        session.options()
    # 156 loop x view classifications, each with its own Tarjan, before
    # the views shared one memo and SCCs were computed on first read.
    assert counts["classify"] <= 83, counts
    assert counts["tarjan"] <= 28, counts
