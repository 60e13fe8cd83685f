"""Session configuration: every option in one frozen value object.

The config is hashable and participates in the cache key, so two
sessions that differ only in configuration never share stale artifacts.
"""

import dataclasses

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
        min_coverage: minimum dynamic-instruction share for a loop to be
            a planning candidate (§6.1's 1%).
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
            (``O1`` + parallel-region fusion), ``O3`` (``O2`` + loop
            interchange, skew-enabled fusion, machine-model tiling, and
            oracle-validated speculation).  Accepts 0/1/2/3, "O3", or
            "-O3".
        compile_regions: run region bodies and the sequential stretches
            between them through the :mod:`repro.codegen` exec-compiled
            path (the default); ``False`` runs everything on the
            interpreter, which stays the oracle and the fallback.  The
            ``optimize`` stage prices plans for the engine chosen here.
        speculate: at ``-O3``, let passes apply transforms whose static
            legality test is inconclusive and validate the candidate
            plan against the simulated oracle before any real backend
            sees it; ``False`` makes inconclusive tests reject outright.
        calibrate: distill each run's region stats into measured
            machine-model coefficients (a
            :class:`repro.planner.calibration.CalibrationStore`) and
            plan subsequent runs with them instead of ``machine``'s
            static values.
        adaptive: default for ``Session.run(adaptive=)`` — mid-run
            replanning of the remaining regions' cost decisions when a
            dispatch diverges from the plan's predictions.  Implies
            calibration for the run's own observations.
        profile_path: where the calibration profile JSON persists
            across sessions; ``None`` keeps it in memory only.
    """

    name: str = "session"
    function_name: str = "main"
    machine: MachineModel = DEFAULT_MACHINE
    abstractions: tuple = ALL_ABSTRACTIONS
    min_coverage: float = 0.01
    workers: int = 4
    seed: int = 0
    backend: str = "simulated"
    schedule: str = "static"
    chunk: int | None = None
    opt_level: OptLevel = OptLevel.O0
    compile_regions: bool = True
    speculate: bool = True
    calibrate: bool = False
    adaptive: bool = False
    profile_path: str | None = None

    def __post_init__(self):
        unknown = set(self.abstractions) - set(ALL_ABSTRACTIONS)
        if unknown:
            raise ValueError(
                f"unknown abstractions {sorted(unknown)}; "
                f"choose from {ALL_ABSTRACTIONS}"
            )
        # NaN fails both comparisons; inf and 2.0 the upper one.  Either
        # way no loop would be a candidate and Fig. 13 reads all zeros.
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ValueError(
                f"min_coverage must be a fraction in [0, 1], got "
                f"{self.min_coverage!r}"
            )
        # Normalize 2 / "2" / "O2" / "-O2" spellings up front so the
        # config fingerprint (and with it every cache key) is stable.
        level = OptLevel.coerce(self.opt_level)
        if level is not self.opt_level:
            object.__setattr__(self, "opt_level", level)

    def derive(self, **changes):
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self):
        """Stable textual identity of this config (cache-key component)."""
        parts = []
        for field in dataclasses.fields(self):
            parts.append(f"{field.name}={getattr(self, field.name)!r}")
        return ";".join(parts)
