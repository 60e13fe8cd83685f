"""Loop classification and Fig. 13 option counting."""

import pytest

from repro import Session
from repro.planner import MachineModel
from repro.planner.classify import classify_loop
from repro.planner.machine import DEFAULT_MACHINE
from repro.planner.options import (
    doall_options,
    dswp_options,
    helix_options,
    options_for_loop,
)
from repro.planner.options import MIN_COVERAGE


def setup_for(source, name="t"):
    return Session.from_source(source, name=name)


AFFINE = (
    "global a: int[16];\n"
    "func main() { pragma omp for\nfor i in 0..16 { a[i] = i; } }"
)

RECURRENCE = (
    "global a: int[16];\n"
    "func main() { for i in 1..16 { a[i] = a[i - 1] + 1; } print(a[15]); }"
)

INDIRECT = (
    "global a: int[16];\nglobal k: int[16];\n"
    "func main() { for i in 0..16 { a[k[i]] = a[k[i]] + 1; } }"
)


class TestClassification:
    def test_affine_loop_is_doall_for_all_views(self):
        setup = setup_for(AFFINE)
        loop = setup.loops[0]
        for view in setup.views.values():
            classification = classify_loop(view, loop)
            assert classification.doall_legal, view.name

    def test_recurrence_never_doall(self):
        setup = setup_for(RECURRENCE)
        loop = setup.loops[0]
        for view in setup.views.values():
            classification = classify_loop(view, loop)
            assert not classification.doall_legal, view.name
            assert classification.sequential_sccs

    def test_indirect_update_doall_only_with_annotation(self):
        setup = setup_for(INDIRECT)
        loop = setup.loops[0]
        assert not classify_loop(setup.views["PDG"], loop).doall_legal

        annotated = INDIRECT.replace(
            "func main() { for", "func main() { pragma omp for\nfor"
        )
        setup2 = setup_for(annotated)
        loop2 = setup2.loops[0]
        assert classify_loop(setup2.views["J&K"], loop2).doall_legal
        assert classify_loop(setup2.views["PS-PDG"], loop2).doall_legal

    def test_unknown_trip_count_blocks_doall(self):
        setup = setup_for(
            "global a: int[16];\n"
            "func main() { var n: int = 8;\n"
            "for i in 0..n { a[i] = i; } }"
        )
        loop = setup.loops[0]
        classification = classify_loop(setup.views["PDG"], loop)
        assert not classification.trip_count_known
        assert not classification.doall_legal

    def test_critical_work_is_serialized_not_sequential(self):
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
        classification = classify_loop(setup.views["PS-PDG"], loop)
        assert classification.doall_legal
        assert classification.serialized_uids


class TestOptionFormulas:
    def test_doall_options_formula(self):
        assert doall_options(DEFAULT_MACHINE) == 56 * 8

    def test_doall_options_scale_with_machine(self):
        machine = MachineModel(cores=4, chunk_sizes=(1, 2))
        assert doall_options(machine) == 8

    def test_helix_options_proportional_to_sequential_sccs(self):
        setup = setup_for(RECURRENCE)
        loop = setup.loops[0]
        classification = classify_loop(setup.views["PDG"], loop)
        k = len(classification.sequential_sccs)
        assert helix_options(classification, DEFAULT_MACHINE) == k * 56

    def test_dswp_needs_two_stages(self):
        setup = setup_for(RECURRENCE)
        loop = setup.loops[0]
        classification = classify_loop(setup.views["PDG"], loop)
        options = dswp_options(classification, DEFAULT_MACHINE)
        assert options == min(len(classification.sccs), 56) - 1

    def test_doall_loop_counts_only_doall(self):
        setup = setup_for(AFFINE)
        loop = setup.loops[0]
        classification = classify_loop(setup.views["PDG"], loop)
        assert options_for_loop(classification) == 448


class TestFig13Reports:
    def test_report_includes_all_abstractions(self):
        setup = setup_for(AFFINE)
        report = setup.options()
        assert set(report.totals) == {"OpenMP", "PDG", "J&K", "PS-PDG"}

    def test_openmp_counts_only_annotated_loops(self):
        setup = setup_for(
            "global a: int[16];\nglobal b: int[16];\n"
            "func main() {\n"
            "  pragma omp for\n"
            "  for i in 0..16 { a[i] = i; }\n"
            "  for j in 0..16 { b[j] = j; }\n"
            "}"
        )
        report = setup.options()
        assert report.totals["OpenMP"] == 448
        assert report.totals["PDG"] == 2 * 448

    def test_coverage_threshold_filters_loops(self):
        setup = setup_for(
            "global a: int[200];\nglobal b: int[4];\n"
            "func main() {\n"
            "  for i in 0..200 { a[i] = i; }\n"
            "  for j in 0..1 { b[j] = j; }\n"
            "}"
        )
        # The one-trip loop runs under 1 % of the profiled instructions.
        profile = setup.profile
        work = profile.header_totals()["for.header.1"]
        assert work / profile.shapes().total < MIN_COVERAGE
        report = setup.options()
        assert list(report.per_loop) == ["for.header"]
