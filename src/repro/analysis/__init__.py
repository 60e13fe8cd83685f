"""repro.analysis — sequential program analyses feeding the PDG/PS-PDG."""

from repro.analysis.alias import (
    CONSOLE,
    AliasAnalysis,
    AllocaObject,
    ArgumentObject,
    ConsoleObject,
    GlobalObject,
    MemoryObject,
)
from repro.analysis.cfg import (
    can_reach,
    predecessors_map,
    reachable_blocks,
    reverse_postorder,
    successors_map,
)
from repro.analysis.controldep import (
    compute_control_dependence,
    controlling_branch_instructions,
)
from repro.analysis.deptests import (
    LevelDependence,
    constant_trip_count,
    loop_iv_range,
    test_level,
)
from repro.analysis.dominators import (
    DominatorTree,
    compute_dominator_tree,
    compute_postdominator_tree,
)
from repro.analysis.liveness import (
    blocks_after_loop,
    live_in_registers,
)
from repro.analysis.loops import (
    Loop,
    find_natural_loops,
    loop_of_block,
)
from repro.analysis.memdep import (
    MemoryAccess,
    MemoryDependence,
    MemoryDependenceAnalysis,
    collect_accesses,
)
from repro.analysis.record import FunctionAnalyses
from repro.analysis.reductions import (
    REDUCIBLE_OPS,
    ScalarReduction,
)
from repro.analysis.scc import strongly_connected_components
from repro.analysis.subscripts import (
    AffineExpr,
    affine_offset,
    induction_alloca_map,
)

__all__ = [
    "CONSOLE",
    "AliasAnalysis",
    "AllocaObject",
    "ArgumentObject",
    "ConsoleObject",
    "GlobalObject",
    "MemoryObject",
    "can_reach",
    "predecessors_map",
    "reachable_blocks",
    "reverse_postorder",
    "successors_map",
    "compute_control_dependence",
    "controlling_branch_instructions",
    "LevelDependence",
    "constant_trip_count",
    "loop_iv_range",
    "test_level",
    "DominatorTree",
    "compute_dominator_tree",
    "compute_postdominator_tree",
    "blocks_after_loop",
    "live_in_registers",
    "Loop",
    "find_natural_loops",
    "loop_of_block",
    "MemoryAccess",
    "MemoryDependence",
    "MemoryDependenceAnalysis",
    "collect_accesses",
    "FunctionAnalyses",
    "REDUCIBLE_OPS",
    "ScalarReduction",
    "strongly_connected_components",
    "AffineExpr",
    "affine_offset",
    "induction_alloca_map",
]
