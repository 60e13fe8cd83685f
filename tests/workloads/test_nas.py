"""NAS mini-kernels: correctness, determinism, and evaluation shapes."""

import pytest

from repro import Session
from repro.emulator.interp import run_module
from repro.ir.verifier import verify_module
from repro.workloads import build_kernel, kernel_names

ALL = kernel_names()


@pytest.fixture(scope="module")
def setups():
    return {name: Session.from_kernel(name) for name in ALL}


@pytest.mark.parametrize("name", ALL)
def test_kernel_compiles_and_verifies(name):
    module = build_kernel(name)
    verify_module(module)


@pytest.mark.parametrize("name", ALL)
def test_kernel_runs_deterministically(name):
    first = run_module(build_kernel(name)).formatted_output()
    second = run_module(build_kernel(name)).formatted_output()
    assert first == second
    assert first, "kernels must print a checksum"


@pytest.mark.parametrize("name", ALL)
def test_kernel_has_worksharing_annotations(name):
    module = build_kernel(name)
    function = module.function("main")
    assert any(
        a.directive.declares_loop_independence()
        for a in function.annotations
    )


@pytest.mark.parametrize("name", ALL)
def test_fig13_ordering_invariants(setups, name):
    report = setups[name].options()
    totals = report.totals
    # The PS-PDG can always leverage at least everything J&K can (§6.2).
    assert totals["PS-PDG"] >= totals["J&K"]
    # Both see at least the loops the sequential PDG can analyze.
    assert totals["PS-PDG"] >= totals["PDG"]
    # The compiler considers more plans than the static source encoding.
    assert totals["PS-PDG"] >= totals["OpenMP"]


@pytest.mark.parametrize("name", ALL)
def test_fig14_ordering_invariants(setups, name):
    results = setups[name].critical_paths()
    # "For benchmarks with good parallelization coverage by the
    # programmer, the PS-PDG ensures no loss of parallelism" — and in
    # general it never falls below the source plan.
    assert results["PS-PDG"]["speedup"] >= 0.999
    assert (
        results["PS-PDG"]["critical_path"]
        <= results["J&K"]["critical_path"]
    )
    # Critical paths never exceed sequential execution.
    sequential = results["Sequential"]["critical_path"]
    for key in ("OpenMP", "PDG", "J&K", "PS-PDG"):
        assert results[key]["critical_path"] <= sequential


def test_ep_is_flat_across_abstractions(setups):
    """Paper: EP's programmer plan is already optimal (Fig. 13/14)."""
    results = setups["EP"].critical_paths()
    assert results["PDG"]["speedup"] == pytest.approx(1.0, rel=0.05)
    assert results["PS-PDG"]["speedup"] == pytest.approx(1.0, rel=0.05)


def test_pdg_loses_badly_on_outer_stepping_benchmarks(setups):
    """Paper Fig. 14: the PDG (outermost-loop methodology) falls below
    the OpenMP plan on benchmarks whose hot loops are inner (e.g. IS)."""
    for name in ("IS", "MG", "SP", "BT", "FT", "LU"):
        results = setups[name].critical_paths()
        assert results["PDG"]["speedup"] < 1.0, name


def test_jk_insufficient_on_mg(setups):
    """Paper: worksharing-improved dependence analysis cannot match the
    PS-PDG on MG (private-array semantics)."""
    results = setups["MG"].critical_paths()
    assert (
        results["PS-PDG"]["critical_path"]
        < results["J&K"]["critical_path"]
    )


def test_pspdg_beats_jk_on_is(setups):
    """Paper: J&K unlocks less than the PS-PDG on IS."""
    results = setups["IS"].critical_paths()
    assert results["PS-PDG"]["speedup"] > results["J&K"]["speedup"]


def test_pspdg_construction_statistics(setups):
    """§6.1: the PS-PDG is generated for every benchmark, with features."""
    for name in ALL:
        stats = setups[name].pspdg.statistics()
        assert stats["hierarchical_nodes"] > 0
        assert stats["contexts"] > 0
        assert stats["relaxations"] > 0, name
