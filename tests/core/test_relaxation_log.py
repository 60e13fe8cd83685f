"""The relaxation log and the graph's statistics, pinned.

``golden_relaxations.json`` holds, per NAS kernel, Fig. 11 gallery
program and ``progen`` seed 0–39, a digest of the PS-PDG's relaxation
log in order — (source uid, destination uid, kind, memory kind, object,
context, feature, loop-independent removed, carried contexts removed)
per entry — and ``PSPDG.statistics()``.  Every view, Fig. 14 and the
optimizer read that log, so a change to how the builder finds what to
relax must leave these bytes alone.

Regenerate (only when a change is *meant* to relax differently)::

    PYTHONPATH=src:tests python tests/core/test_relaxation_log.py
"""

import hashlib
import json
import os

import pytest

from repro import Session
from repro.workloads import PAIRS, kernel_names
from support.progen import generate_program

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_relaxations.json"
)

SOURCES = {
    **{
        f"{pair.key}-{label}": source
        for pair in PAIRS
        for label, source in pair.sources().items()
    },
    **{f"progen-{seed}": generate_program(seed) for seed in range(40)},
}
PROGRAMS = [*kernel_names(), *SOURCES]


def log_rows(pspdg):
    return [
        (
            r.edge.source.uid,
            r.edge.destination.uid,
            r.edge.kind,
            r.edge.mem_kind,
            repr(r.edge.obj),
            r.context,
            r.feature,
            r.loop_independent_removed,
            tuple(r.carried_removed),
        )
        for r in pspdg.relaxations
    ]


def log_pins(pspdg):
    rows = log_rows(pspdg)
    return {
        "log": hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
        "statistics": pspdg.statistics(),
    }


def _pspdg(name):
    if name in SOURCES:
        return Session.from_source(SOURCES[name], name=name).pspdg
    return Session.from_kernel(name).pspdg


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_program():
    assert sorted(_golden()) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", PROGRAMS)
def test_log_and_statistics_match_golden(name):
    assert log_pins(_pspdg(name)) == _golden()[name]


if __name__ == "__main__":
    pins = {name: log_pins(_pspdg(name)) for name in PROGRAMS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
