"""Every ``-O`` decision, pinned: reports and plans may not drift.

``golden_opt_reports.json`` holds, for the eight NAS kernels and the
benchmark's ``dense8/48/96`` programs at ``-O0..3``, each abstraction's
``OptReport.describe()`` (what every pass applied or rejected, and why)
and the optimized ``ProgramPlan.describe()`` (the region descriptors
the runtime dispatches), from a default-config :class:`Session`.  A
refactor of the passes, their legality predicates or the pricing must
leave these bytes alone.  A session configured for ``processes``
prices every plan the same: its workers' compute overlaps, as the
default ``simulated`` backend's does.

Regenerate (only when a change is *meant* to move a decision)::

    PYTHONPATH=src:tests python tests/opt/test_golden_opt_reports.py
"""

import json
import os

import pytest

from repro import Session
from repro.workloads import kernel_names
from support.programs import dense_source

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_opt_reports.json"
)

PROGRAMS = [*kernel_names(), "dense8", "dense48", "dense96"]
LEVELS = (0, 1, 2, 3)


def _session(name, backend):
    if name.startswith("dense"):
        return Session.from_source(
            dense_source(int(name[len("dense"):])), name=name,
            backend=backend,
        )
    return Session.from_kernel(name, backend=backend)


def opt_pins(name, backend="simulated"):
    """``{"-O<L>": {abstraction: {"report", "plan"}}}`` for one program."""
    session = _session(name, backend)
    pins = {}
    for level in LEVELS:
        session.reconfigure(opt_level=level)
        pins[f"-O{level}"] = {
            abstraction: {
                "report": result.report.describe(),
                "plan": result.plan.describe(),
            }
            for abstraction, result in session.optimizations.items()
        }
    return pins


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_program():
    golden = _golden()
    assert sorted(golden) == sorted(PROGRAMS)
    for name in PROGRAMS:
        assert sorted(golden[name]) == [f"-O{level}" for level in LEVELS]
        for abstractions in golden[name].values():
            assert sorted(abstractions) == ["J&K", "OpenMP", "PDG", "PS-PDG"]


@pytest.mark.parametrize("name", PROGRAMS)
def test_reports_and_plans_match_golden(name):
    assert opt_pins(name) == _golden()[name]


@pytest.mark.parametrize("name", PROGRAMS)
def test_plans_priced_for_processes_match_golden(name):
    assert opt_pins(name, "processes") == _golden()[name]


if __name__ == "__main__":
    pins = {name: opt_pins(name) for name in PROGRAMS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
