"""Directive model unit tests."""

import pytest

from repro.frontend.directives import (
    Clauses,
    Directive,
    RegionAnnotation,
)
from repro.util.errors import FrontendError


def test_unknown_kind_rejected():
    with pytest.raises(FrontendError):
        Directive("spin")


def test_loop_independence_classification():
    assert Directive("for").declares_loop_independence()
    assert Directive("parallel_for").declares_loop_independence()
    assert Directive("simd").declares_loop_independence()
    assert Directive("cilk_for").declares_loop_independence()
    assert not Directive("parallel").declares_loop_independence()
    assert not Directive("critical").declares_loop_independence()


def test_standalone_classification():
    assert Directive("barrier").is_standalone()
    assert Directive("taskwait").is_standalone()
    assert Directive("cilk_sync").is_standalone()
    assert not Directive("task").is_standalone()


def test_describe_includes_clauses():
    clauses = Clauses(
        private=["x"],
        reductions=[("+", "s")],
        schedule=("static", 4),
        nowait=True,
    )
    text = Directive("for", clauses).describe()
    assert "reduction(+: s)" in text
    assert "private(x)" in text
    assert "schedule(static, 4)" in text
    assert "nowait" in text


def test_all_variable_names_collects_every_clause():
    clauses = Clauses(
        private=["a"],
        firstprivate=["b"],
        lastprivate=["c"],
        shared=["d"],
        anyvalue=["e"],
        reductions=[("+", "f")],
        depends=[("in", "g")],
    )
    assert set(clauses.all_variable_names()) == set("abcdefg")


def test_annotation_binding_lookup():
    annotation = RegionAnnotation(
        uid="omp0",
        directive=Directive("for"),
        block_names=["b"],
        var_bindings={"s": object()},
    )
    assert annotation.binding("s") is annotation.var_bindings["s"]
    with pytest.raises(FrontendError):
        annotation.binding("missing")


def test_annotation_describe():
    annotation = RegionAnnotation(
        uid="omp0",
        directive=Directive("critical"),
        block_names=["c0"],
    )
    assert "omp critical" in annotation.describe()
    assert "c0" in annotation.describe()


def test_annotation_lock_key():
    def key(kind, name=None):
        clauses = Clauses(critical_name=name)
        return RegionAnnotation("omp7", Directive(kind, clauses), []).lock_key

    assert key("atomic") == "atomic:omp7"
    assert key("critical", "hist") == "critical:hist"
    assert key("critical") == "critical:<anonymous>"
    assert key("ordered") is None
