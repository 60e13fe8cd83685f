"""repro.analysis — sequential program analyses feeding the PDG/PS-PDG."""

from repro.analysis.alias import CONSOLE, AliasAnalysis
from repro.analysis.controldep import (
    compute_control_dependence,
    controlling_branch_instructions,
)
from repro.analysis.deptests import constant_trip_count, test_level
from repro.analysis.dominators import (
    compute_dominator_tree,
    compute_postdominator_tree,
)
from repro.analysis.liveness import blocks_after_loop, live_in_registers
from repro.analysis.loops import find_natural_loops, loop_of_block
from repro.analysis.record import FunctionAnalyses
from repro.analysis.scc import strongly_connected_components
from repro.analysis.subscripts import (
    AffineExpr,
    affine_offset,
    induction_alloca_map,
)

__all__ = [
    "CONSOLE",
    "AliasAnalysis",
    "compute_control_dependence",
    "controlling_branch_instructions",
    "constant_trip_count",
    "test_level",
    "compute_dominator_tree",
    "compute_postdominator_tree",
    "blocks_after_loop",
    "live_in_registers",
    "find_natural_loops",
    "loop_of_block",
    "FunctionAnalyses",
    "strongly_connected_components",
    "AffineExpr",
    "affine_offset",
    "induction_alloca_map",
]
