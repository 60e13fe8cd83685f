"""Optimization passes over (PS-PDG, ProgramPlan): the ``-O`` pipeline.

The paper positions the PS-PDG as a representation *for parallel
optimization*; this package is where the reproduction actually rewrites
plans instead of only reading the graph.  Seven passes, every rewrite
legality-checked against the sequential dependences of the function's
analysis record (``pspdg.pdg.analyses``).  ``-O1``/``-O2`` run three:

* :class:`~repro.opt.fusion.RegionFusionPass` — adjacent compatible
  DOALL loops become one dispatched region (one process-pool payload
  instead of several), with their privatization/reduction sets unified;
* :class:`~repro.opt.sync.SyncEliminationPass` — ``critical``/``atomic``
  locks whose guarded objects have no cross-worker dependence at the
  loop level are elided;
* :class:`~repro.opt.serialize.SmallRegionSerializationPass` — regions
  below the machine model's cost thresholds fall back to sequential or
  ``threads`` execution instead of paying process-pool pickling.

The ``-O3`` tier adds three transform passes, each a pattern plus a
side condition decided on the graph alone — a test that cannot decide
rejects:

* :class:`~repro.opt.interchange.LoopInterchangePass` — a serial-outer /
  DOALL-inner nest whose direction vectors are all ``(*, =)`` dispatches
  once, partitioned over the inner space, instead of once per outer
  iteration;
* :class:`~repro.opt.fusion.SkewedRegionFusionPass` — fusion that also
  accepts uniform non-zero dependence distances by shifting the
  partner's partition;
* :class:`~repro.opt.tiling.TilingPass` — the machine model floors
  iterations-per-payload so tiny chunks stop paying dispatch overhead.

Entry point: :func:`optimize_plan` ``(pspdg, plan, level)``; levels:
:class:`OptLevel`.
"""

from repro.opt.context import OptContext
from repro.opt.fusion import RegionFusionPass, SkewedRegionFusionPass
from repro.opt.interchange import LoopInterchangePass
from repro.opt.legality import can_fuse, can_interchange, sync_is_redundant
from repro.opt.levels import OptLevel
from repro.opt.manager import (
    PIPELINES,
    OptimizationResult,
    OptReport,
    PassManager,
    optimize_plan,
    passes_for,
    seed_regions,
)
from repro.opt.serialize import SmallRegionSerializationPass
from repro.opt.sync import SyncEliminationPass
from repro.opt.tiling import TilingPass

__all__ = [
    "OptContext",
    "OptLevel",
    "OptReport",
    "OptimizationResult",
    "PassManager",
    "PIPELINES",
    "LoopInterchangePass",
    "RegionFusionPass",
    "SkewedRegionFusionPass",
    "SmallRegionSerializationPass",
    "SyncEliminationPass",
    "TilingPass",
    "can_fuse",
    "can_interchange",
    "optimize_plan",
    "passes_for",
    "seed_regions",
    "sync_is_redundant",
]
