"""Optimization passes over (PS-PDG, ProgramPlan): the ``-O`` pipeline.

The paper positions the PS-PDG as a representation *for parallel
optimization*; this package is where the reproduction actually rewrites
plans instead of only reading the graph.  Four passes, every rewrite
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
  ``threads`` execution instead of paying process-pool pickling (or,
  where workers do not overlap, any that dispatch would slow).

``-O3`` adds :class:`~repro.opt.tiling.TilingPass` — the machine model
floors iterations-per-payload so tiny chunks stop paying dispatch
overhead.

Entry points: :func:`restructure_plan` ``(pspdg, plan, level)`` (fusion
and sync elimination, which read only the graphs), then
:func:`price_plan` ``(pspdg, restructured, machine, overlaps=True)``
(serialization and tiling, which read the machine model), so a new
machine re-prices a plan without restructuring it again; levels:
:class:`OptLevel`.
"""

from repro.opt.levels import OptLevel
from repro.opt.manager import price_plan, restructure_plan

__all__ = [
    "OptLevel",
    "price_plan",
    "restructure_plan",
]
