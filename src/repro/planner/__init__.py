"""repro.planner — parallelization planning over PDG / J&K / PS-PDG views.

Implements the paper's evaluation machinery: loop classification by SCCs
(§6.1), option enumeration on a 56-core machine model (§6.2, Fig. 13), and
ideal-machine critical-path plan selection (§6.3, Fig. 14).
"""

from repro.planner.experiments import format_fig13_row, format_fig14_row
from repro.planner.machine import MachineModel

__all__ = [
    "format_fig13_row",
    "format_fig14_row",
    "MachineModel",
]
