"""Dependence views: what PDG, J&K, and PS-PDG each see."""

from repro import Session


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


def test_view_names():
    setup = setup_for("func main() { for i in 0..4 { } }")
    assert {v.name for v in setup.views.values()} == {
        "PDG",
        "J&K",
        "PS-PDG",
    }
