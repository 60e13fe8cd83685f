"""repro.planner — parallelization planning over PDG / J&K / PS-PDG views.

Implements the paper's evaluation machinery: loop classification by SCCs
(§6.1), option enumeration on a 56-core machine model (§6.2, Fig. 13), and
ideal-machine critical-path plan selection (§6.3, Fig. 14).
"""

from repro.planner.classify import classify_loop
from repro.planner.critical_path import CriticalPathEvaluator
from repro.planner.experiments import format_fig13_row, format_fig14_row
from repro.planner.machine import DEFAULT_MACHINE, MachineModel
from repro.planner.options import (
    doall_options,
    dswp_options,
    helix_options,
    options_for_loop,
)
from repro.planner.plans import (
    LoopPlan,
    ProgramPlan,
    TECH_DOALL,
    TECH_DSWP,
    TECH_HELIX,
    TECH_SEQ,
    abstraction_plan,
    loop_uid_map,
    openmp_source_plan,
)
from repro.planner.views import VIEW_FEATURES, DependenceView

__all__ = [
    "classify_loop",
    "CriticalPathEvaluator",
    "format_fig13_row",
    "format_fig14_row",
    "DEFAULT_MACHINE",
    "MachineModel",
    "doall_options",
    "dswp_options",
    "helix_options",
    "options_for_loop",
    "LoopPlan",
    "ProgramPlan",
    "TECH_DOALL",
    "TECH_DSWP",
    "TECH_HELIX",
    "TECH_SEQ",
    "abstraction_plan",
    "loop_uid_map",
    "openmp_source_plan",
    "VIEW_FEATURES",
    "DependenceView",
]
