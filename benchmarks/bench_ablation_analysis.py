"""Design-choice ablation: sequential-analysis precision vs the PS-PDG gap.

DESIGN.md claims the PDG-vs-PS-PDG gap comes from declared parallel
semantics, not from sequential analysis precision.  This bench checks it:
we rebuild the PDG with the affine dependence tests disabled (every
subscript treated as unknown, maximally conservative) and verify the
PS-PDG's Fig. 14 advantage persists — the gap is robust to analysis
precision, because no precision recovers threadprivate buffers, orderless
criticals, or private arrays.
"""

import pytest

from repro import Session
from repro.analysis import affine


@pytest.fixture
def conservative_subscripts(monkeypatch):
    """Disable affine subscript extraction (all offsets unknown): the
    dependence analysis reads every access's offset through
    ``affine.gep_offset``."""
    monkeypatch.setattr(
        affine, "gep_offset", lambda pointer, *policy: (pointer, None)
    )


@pytest.mark.parametrize("name", ["IS", "MG"])
def test_gap_survives_conservative_analysis(
    name, conservative_subscripts, benchmark, capsys
):
    def run():
        # A fresh session per run: the patched analysis must flow into
        # the PDG build, so the shared cached sessions cannot be used.
        return Session.from_kernel(name).critical_paths()

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[ablation: no affine tests] {name}: "
            f"PDG={results['PDG']['speedup']:.3f} "
            f"PS-PDG={results['PS-PDG']['speedup']:.3f}"
        )
    # Even with a maximally conservative sequential analysis, the
    # PS-PDG's declared semantics keep it at or above the source plan
    # and strictly above the PDG.
    assert results["PS-PDG"]["speedup"] >= 0.999
    assert (
        results["PS-PDG"]["speedup"] > results["PDG"]["speedup"]
    )
