"""repro.pipeline — the staged, cached pipeline behind :class:`repro.Session`.

The paper's Fig. 12 pipeline (source -> annotated IR -> profile -> PDG ->
PS-PDG -> views -> planning) is modelled as an explicit stage graph
(:mod:`repro.pipeline.stages`) whose artifacts are materialized lazily,
exactly once, into the session's dict, keyed by stage, program
generation, the config values the stage reads and the calibration
token.  Per-stage wall time, run and hit counts, and artifact
statistics are collected in :mod:`repro.pipeline.diagnostics`;
:mod:`repro.pipeline.config` is the one home of every behavioural
option.
"""

from repro.pipeline.config import SessionConfig
from repro.pipeline.diagnostics import Diagnostics, StageRecord
from repro.pipeline.stages import STAGES, Stage, stage_order

__all__ = [
    "SessionConfig",
    "Diagnostics",
    "StageRecord",
    "STAGES",
    "Stage",
    "stage_order",
]
