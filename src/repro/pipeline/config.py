"""Session configuration: every option in one frozen value object.

The config's field values are hashable and make up a session's stage
memo keys, so a changed field never returns a stale artifact.
"""

import dataclasses
import os

from repro.opt.levels import OptLevel
from repro.planner.machine import DEFAULT_MACHINE, MachineModel

#: Dependence abstractions the evaluation compares (paper §6.2).
ALL_ABSTRACTIONS = ("PDG", "J&K", "PS-PDG")


@dataclasses.dataclass(frozen=True, slots=True)
class SessionConfig:
    """Immutable pipeline configuration for one :class:`repro.Session`.

    Attributes:
        name: benchmark/session label used in reports and plan names.
        function_name: profiled entry point of the module.
        machine: :class:`MachineModel` for option enumeration and plans.
        abstractions: dependence views to build (subset of
            ``ALL_ABSTRACTIONS``; "OpenMP" is always implied).
        workers: worker count for parallel execution.
        seed: scheduler seed (interleaving order of the ``simulated``
            backend; ignored by the real backends).
        backend: execution backend — ``"simulated"`` (the seeded
            interleaving oracle), ``"threads"``, or ``"processes"``.
        schedule: chunk schedule — ``"static"``, ``"dynamic"``, or
            ``"guided"`` (partitioning is shared by all backends).
        chunk: chunk-size override; ``None`` uses each loop recipe's own
            chunk (source ``schedule(..., n)`` clause, default 1).
        opt_level: :class:`~repro.opt.levels.OptLevel` of the pipeline's
            ``optimize`` stage — ``O0`` (plans run as chosen), ``O1``
            (sync elimination + small-region serialization), ``O2``
            (``O1`` + parallel-region fusion), ``O3`` (``O2`` +
            machine-model tiling).
            Accepts 0/1/2/3, "O3", or "-O3".
        compile_regions: run region bodies and the sequential stretches
            between them through the :mod:`repro.codegen` exec-compiled
            path (the default); ``False`` runs everything on the
            interpreter, which stays the oracle and the fallback.  The
            ``optimize`` stage prices plans for the engine chosen here.
        calibrate: distill each run's region stats into measured
            machine-model coefficients (a
            :class:`repro.planner.calibration.CalibrationStore`) and
            plan subsequent runs with them instead of ``machine``'s
            static values.
        profile_path: the calibration profile JSON file that persists
            measurements across sessions (not a directory); ``None``
            keeps them in memory only.
    """

    name: str = "session"
    function_name: str = "main"
    machine: MachineModel = DEFAULT_MACHINE
    abstractions: tuple = ALL_ABSTRACTIONS
    workers: int = 4
    seed: int = 0
    backend: str = "simulated"
    schedule: str = "static"
    chunk: int | None = None
    opt_level: OptLevel = OptLevel.O0
    compile_regions: bool = True
    calibrate: bool = False
    profile_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.machine, MachineModel):
            raise ValueError(
                f"machine must be a MachineModel, got {self.machine!r}"
            )
        # A bare string would be read as its letters.
        if isinstance(self.abstractions, str):
            raise ValueError(
                f"abstractions must be a sequence of names, not the "
                f"string {self.abstractions!r}; write "
                f"({self.abstractions!r},)"
            )
        # A tuple, so the names can sit in a stage memo key.
        object.__setattr__(self, "abstractions", tuple(self.abstractions))
        unknown = set(self.abstractions) - set(ALL_ABSTRACTIONS)
        if unknown:
            raise ValueError(
                f"unknown abstractions {sorted(unknown)}; "
                f"choose from {ALL_ABSTRACTIONS}"
            )
        # Caught here, not when the first calibrated run saves its
        # profile: that run's result would be lost to the error.
        if self.profile_path is not None and os.path.isdir(self.profile_path):
            raise ValueError(
                f"profile_path must name a profile file, got the "
                f"directory {self.profile_path!r}"
            )
        # Normalize 2 / "2" / "O2" / "-O2" spellings up front so the
        # config fingerprint (and with it every memo key) is stable.
        level = OptLevel.coerce(self.opt_level)
        if level is not self.opt_level:
            object.__setattr__(self, "opt_level", level)

    def derive(self, **changes):
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self):
        """Stable textual identity of this config."""
        parts = []
        for field in dataclasses.fields(self):
            parts.append(f"{field.name}={getattr(self, field.name)!r}")
        return ";".join(parts)
