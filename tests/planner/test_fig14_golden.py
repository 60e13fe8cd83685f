"""Fig. 14 pinned exactly: critical paths and chosen plans per kernel.

``golden_fig14.json`` holds, for every NAS kernel and every abstraction,
the integer ideal-machine critical path and — per loop header — the
chosen technique with its uid partitions.  The inequalities elsewhere in
the suite (``PS-PDG <= J&K``, ``speedup >= 0.999``) would let a planner
change shift these numbers silently; this file does not.

Regenerate (only when a change is *meant* to move Fig. 14)::

    PYTHONPATH=src python tests/planner/test_fig14_golden.py
"""

import json
import os

import pytest

from repro import Session
from repro.workloads import kernel_names

KERNEL_NAMES = kernel_names()

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_fig14.json")


def _loop_plan_record(loop_plan):
    return {
        "technique": loop_plan.technique,
        "serialized_uids": sorted(loop_plan.serialized_uids),
        "sequential_uids": sorted(loop_plan.sequential_uids),
        "stage_groups": [sorted(stage) for stage in loop_plan.stage_groups],
    }


def fig14_numbers(kernel):
    """The JSON-shaped Fig. 14 record of one kernel."""
    results = Session.from_kernel(kernel).critical_paths()
    return {
        "critical_path": {
            name: entry["critical_path"] for name, entry in results.items()
        },
        "plans": {
            name: {
                header: _loop_plan_record(loop_plan)
                for header, loop_plan in sorted(
                    entry["plan"].loop_plans.items()
                )
            }
            for name, entry in results.items()
            if "plan" in entry
        },
    }


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_kernel_and_abstraction():
    golden = _golden()
    assert sorted(golden) == sorted(KERNEL_NAMES)
    for record in golden.values():
        assert list(record["critical_path"]) == [
            "Sequential", "OpenMP", "PDG", "J&K", "PS-PDG",
        ]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_fig14_matches_golden(kernel):
    assert fig14_numbers(kernel) == _golden()[kernel]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {kernel: fig14_numbers(kernel) for kernel in KERNEL_NAMES},
            handle, indent=1,
        )
        handle.write("\n")
