"""Every dependence edge, pinned: none may appear or vanish.

``golden_edges.json`` holds, per NAS kernel and per program of the
Fig. 11 necessity gallery, the sequential PDG's edge count and a digest
of its canonical edge tuples in graph order — (source uid, destination
uid, kind, loop-independent, carried loop headers, memory object) — and
digests of the PS-PDG's directed edges (``support/overlay.py``: the
PDG's edges plus the overlay) and undirected edges.  Everything
downstream (classification, plans, recipes, fusion, codegen) trusts
that this edge set is complete, so a change to how the graphs are built
or indexed must leave these bytes alone.

Regenerate (only when a change is *meant* to add or drop edges)::

    PYTHONPATH=src:tests python tests/pdg/test_golden_edges.py
"""

import hashlib
import json
import os

import pytest

from repro import Session
from repro.core.model import InstructionNode
from repro.workloads import PAIRS, kernel_names
from support.overlay import directed_edges

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_edges.json")

GALLERY = {
    f"{pair.key}-{label}": source
    for pair in PAIRS
    for label, source in pair.sources().items()
}


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _node_key(node):
    if isinstance(node, InstructionNode):
        return node.instruction.uid
    return f"{node.kind}:{node.context_label or node.source_uid}"


def _pdg_rows(pdg):
    return [
        (
            edge.source.uid,
            edge.destination.uid,
            edge.kind,
            edge.loop_independent,
            tuple(loop.header.name for loop in edge.carried_loops),
            repr(edge.obj),
        )
        for edge in pdg.edges
    ]


def _directed_rows(pspdg):
    return [
        (
            _node_key(edge.producer),
            _node_key(edge.consumer),
            edge.kind,
            edge.mem_kind,
            edge.loop_independent,
            tuple(edge.carried_contexts),
            repr(edge.obj),
            None if edge.selector is None
            else (edge.selector.kind, edge.selector.context),
        )
        for edge in directed_edges(pspdg)
    ]


def _undirected_rows(pspdg):
    return [
        (_node_key(edge.a), _node_key(edge.b), edge.context, repr(edge.obj))
        for edge in pspdg.undirected_edges
    ]


def edge_pins(session):
    pdg, pspdg = session.pdg, session.pspdg
    return {
        "pdg_edges": len(pdg.edges),
        "pdg": _digest(_pdg_rows(pdg)),
        "pspdg_directed": _digest(_directed_rows(pspdg)),
        "pspdg_undirected": _digest(_undirected_rows(pspdg)),
    }


def _session(name):
    if name in GALLERY:
        return Session.from_source(GALLERY[name], name=name)
    return Session.from_kernel(name)


PROGRAMS = [*kernel_names(), *sorted(GALLERY)]


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_program():
    assert sorted(_golden()) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", PROGRAMS)
def test_edges_match_golden(name):
    assert edge_pins(_session(name)) == _golden()[name]


if __name__ == "__main__":
    pins = {name: edge_pins(_session(name)) for name in PROGRAMS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
