"""repro.pipeline — the staged, cached pipeline behind :class:`repro.Session`.

The paper's Fig. 12 pipeline (source -> annotated IR -> profile -> PDG ->
PS-PDG -> views -> planning) is modelled as an explicit stage graph
(:mod:`repro.pipeline.stages`) whose artifacts are materialized lazily,
exactly once, into the session's dict, keyed by the stage, the values
of the config fields it reads and the calibration token.  Per-stage
wall time, run and hit counts, and artifact statistics are collected
in :mod:`repro.pipeline.diagnostics`; :mod:`repro.pipeline.config` is
the one home of every behavioural option.
"""

from repro.pipeline.config import SessionConfig

__all__ = ["SessionConfig"]
