"""RegionStats: the one record, its schema, and its derived quantities.

A region's measurements have one shape from the backend's counter
increments to the calibration store.  These tests pin (a) the layering
that keeps the runtime a leaf of the planner/pipeline, (b) the key set
the frozen benchmark harness and ``parallel_report`` subscript, and
(c) the derived quantities every consumer used to re-implement.
"""

import ast
import dataclasses
import gc
import tracemalloc
from pathlib import Path

import pytest

from repro import Session
from repro.util.regionstats import (
    RegionStats,
    parallel_report,
    region_feedback,
)

ROOT = Path(__file__).resolve().parents[2]
RUNTIME = ROOT / "src" / "repro" / "runtime"

#: Layers the runtime must never reach up into.
FORBIDDEN = ("repro.opt", "repro.pipeline", "repro.session")


def _imports(path):
    """``(module name, is function-local)`` for every import in a file."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, local) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((child.module or "", local))
                found.extend(
                    (f"{child.module}.{alias.name}", local)
                    for alias in child.names
                )
            visit(child, local or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ))

    visit(tree, False)
    return found


# -- (a) layering ----------------------------------------------------------------


@pytest.mark.parametrize(
    "path", sorted(RUNTIME.glob("*.py")), ids=lambda p: p.name
)
def test_runtime_never_imports_upward(path):
    for name, _local in _imports(path):
        assert not any(
            name == layer or name.startswith(layer + ".")
            for layer in FORBIDDEN
        ), f"{path.name} imports {name}"


def test_executor_has_no_function_local_repro_imports():
    local = [
        name for name, is_local in _imports(RUNTIME / "executor.py")
        if is_local and (name == "repro" or name.startswith("repro."))
    ]
    assert local == []


# -- (b) schema ------------------------------------------------------------------


def _harness_region_sums():
    """``benchmarks/e2e/layers.py::_REGION_SUMS``, read without importing
    the harness (its sibling imports only resolve from its own directory)."""
    layers = ROOT / "benchmarks" / "e2e" / "layers.py"
    for node in ast.parse(layers.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "_REGION_SUMS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/e2e/layers.py lost _REGION_SUMS")


@pytest.fixture(scope="module")
def published():
    session = Session.from_kernel("EP", workers=2)
    result = session.run("PS-PDG", backend="threads")
    assert result.parallel_regions
    return session, result.parallel_regions[0]


def test_published_record_has_every_key_the_harness_subscripts(published):
    _session, region = published
    keys = set(_harness_region_sums().values()) | {
        "header", "backend", "seconds", "failovers",
        "codegen_fallbacks", "interpreted_chunks", "per_worker",
    }
    for key in keys:
        region[key]  # KeyError = a renamed or forgotten field
    for worker in region["per_worker"]:
        assert set(worker) == {"worker", "iterations", "steps", "seconds"}


def test_key_set_is_exactly_the_field_set(published):
    _session, region = published
    fields = [field.name for field in dataclasses.fields(RegionStats)]
    assert isinstance(region, RegionStats)
    assert list(region.keys()) == fields
    assert dict(region) == {name: getattr(region, name) for name in fields}
    assert region.get("no_such_stat", 7) == 7
    with pytest.raises(KeyError):
        region["no_such_stat"]


def test_parallel_report_renders_every_column(published):
    _session, region = published
    header, _rule, row = parallel_report([region]).splitlines()[:3]
    assert header.split()[:13] == [
        "loop", "backend", "sched", "W", "iters", "bytes", "cc", "ic",
        "rtry", "fo", "flt", "rec-ms", "seconds",
    ]
    assert row.split()[:2] == [region.header, region.backend]


def test_warm_runs_leave_no_region_records_behind():
    """A record lives in its run's result and nowhere else: 300 warm
    runs on one Session hold on to (almost) nothing they allocated.
    A Session-side mirror of every region kept ~0.8 KB a run."""
    session = Session.from_kernel("EP", workers=2)
    for _ in range(100):  # caches, the team, calibration: all warm
        session.run("PS-PDG", backend="threads")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            session.run("PS-PDG", backend="threads")
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024, f"300 warm runs kept {grown} bytes"


# -- (c) derived quantities ------------------------------------------------------


def _region(seconds=1.0, workers=((100, 0.25), (300, 0.5)), **fields):
    return RegionStats(
        seconds=seconds,
        per_worker=[
            {"worker": index, "iterations": steps, "steps": steps,
             "seconds": clock}
            for index, (steps, clock) in enumerate(workers)
        ],
        **fields,
    )


@pytest.mark.parametrize("field", ("retries", "failovers", "faults_injected"))
def test_recovery_inflated_is_any_supervision_counter(field):
    assert not _region().recovery_inflated
    assert _region(**{field: 1}).recovery_inflated
    # Time spent recovering is a ledger entry, not inflation.
    assert not _region(recovery_ms=2.5).recovery_inflated


def test_overhead_is_wall_minus_slowest_worker():
    region = _region(seconds=1.0)
    assert region.compute_seconds == 0.5
    assert region.dispatch_overhead == 0.5
    untimed = RegionStats(seconds=0.25)  # no per-worker rows at all
    assert untimed.compute_seconds == 0.0
    assert untimed.dispatch_overhead == 0.25


def test_region_feedback_aggregates_wire_and_speedup():
    regions = [
        _region(header="L1", payloads=4, payload_bytes=4000,
                interpreted_chunks=2, seconds=1.0),
        _region(header="L1", payloads=4, payload_bytes=400,
                compiled_chunks=2, seconds=0.25, retries=1, recovery_ms=2.5),
        # Mixed engines: the rate belongs to neither, so no speedup.
        _region(header="L2", compiled_chunks=1, interpreted_chunks=1),
        _region(header="quiet"),
    ]
    payload_bytes, speedup = region_feedback(regions)
    assert payload_bytes == {"L1": 4400 // 8}
    # 400 steps in 0.25s compiled vs 400 steps in 1.0s interpreted.
    assert speedup == {"L1": pytest.approx(4.0)}
    assert region_feedback([]) == ({}, {})
