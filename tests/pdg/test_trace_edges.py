"""The PDG against a traced run: no observed dependence goes unmodelled.

Every flow, anti and output dependence a sequential run shows between
two iterations of one loop instance (``support.trace``) must have a
memory edge of the same kind, between the same two instructions,
carried at that loop.  A miss is an edge the static analysis lost —
the soundness bug every plan downstream would inherit.  The programs
are the eight NAS kernels, the Fig. 11 necessity gallery and
``progen.generate_program`` at seeds ``0..39``.
"""

import pytest

from repro import Session
from repro.workloads import PAIRS, kernel_names
from support.progen import generate_program
from support.trace import missing_edges

SOURCES = {
    **{
        f"{pair.key}-{label}": source
        for pair in PAIRS
        for label, source in pair.sources().items()
    },
    **{f"progen-{seed}": generate_program(seed) for seed in range(40)},
}


@pytest.mark.parametrize("name", [*kernel_names(), *SOURCES])
def test_every_traced_dependence_has_a_carried_edge(name):
    if name in SOURCES:
        session = Session.from_source(SOURCES[name], name=name)
    else:
        session = Session.from_kernel(name)
    assert missing_edges(session.pdg) == []
