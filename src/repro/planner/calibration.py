"""Profile-guided calibration of the :class:`MachineModel`.

The planner prices every cost decision — small-region serialization,
tiling width, backend choice — from :class:`MachineModel` coefficients
that shipped as guesses.  The runtime, meanwhile, measures exactly the
quantities those coefficients model: per-region wall time, per-worker
compute time, bytes-on-wire, and compiled vs. interpreted step rates.
:class:`CalibrationStore` closes the loop:

* :meth:`~CalibrationStore.observe_run` distills a run's region stats
  into coefficient *samples* (see the estimators below) and folds them
  into exponentially-decayed running estimates, with outlier rejection
  so one noisy region cannot yank the model;
* :meth:`~CalibrationStore.calibrated_machine` projects the estimates
  onto a base :class:`MachineModel`, clamped so no coefficient can go
  non-positive;
* per-program region feedback (bytes/speedup per region label,
  keyed by the module's content hash) persists alongside, so a *warm
  session* re-plans with measured payload feedback before its first
  dispatch;
* :meth:`~CalibrationStore.save`/:meth:`~CalibrationStore.load` give
  the store a JSON file identity (``SessionConfig.profile_path``), making
  calibration survive process boundaries.

Estimators (deliberately coarse — threshold decisions only need the
right order of magnitude, and the EWMA smooths the rest):

* ``steps/second`` comes from the per-worker ``(steps, seconds)``
  pairs, converting wall-clock overhead into the dynamic-instruction
  units the cost model uses.
* A region's *dispatch overhead* is its wall time minus its slowest
  worker's compute time.  On the threads backend that is all fixed
  dispatch cost (``threads_region_cost``); on the processes backend
  half is attributed to fixed dispatch and half to serialization,
  giving a ``payload_cost_per_byte`` estimate after dividing by the
  measured bytes — but only for dispatches that shipped at least
  ``PAYLOAD_SAMPLE_FLOOR`` bytes (a program whose whole shared state
  is smaller is all dispatch, no wire).  Overheads are aggregated into
  **one sample per run** before entering the EWMA; single dispatches
  are scheduling noise.  ``serial_region_cost`` keeps the seed model's
  1:4 ratio to the threads bar.
* ``compiled_speedup`` is the measured compiled-over-interpreted step
  rate from :func:`repro.util.regionstats.region_feedback`.

Recovery-inflated regions (:attr:`RegionStats.recovery_inflated`) are
excluded wholesale: their timings measure the fault injector, the
retries and the failover, not the machine.
"""

import dataclasses
import json
import math
import os

from repro.planner.machine import DEFAULT_MACHINE
from repro.util.regionstats import region_feedback

#: Version of the profile file's JSON shape.  A mismatched (or
#: malformed) file is ignored on load — a stale profile must degrade to
#: "no measurements yet", never crash session construction.
PROFILE_SCHEMA = 2

#: EWMA weight of a *new* sample.  Overhead samples are run-level
#: means (see ``_observe_overheads``), so 0.5 converges within a few
#: runs (the bench gate requires agreement after 3) while still
#: damping run-to-run noise.
DECAY = 0.5

#: A sample further than this factor from the running estimate is
#: rejected once the estimate has settled (``OUTLIER_MIN_SAMPLES``
#: accepted samples) — one GC pause or pool respawn inside a region
#: must not poison the model.
OUTLIER_FACTOR = 8.0
OUTLIER_MIN_SAMPLES = 3

#: The seed model's serial:threads cost-bar ratio (512:2048); the
#: serial bar is derived from the measured dispatch overhead through
#: it rather than estimated independently (a never-dispatched loop has
#: no observable serial-dispatch cost).
_SERIAL_RATIO = (
    DEFAULT_MACHINE.serial_region_cost / DEFAULT_MACHINE.threads_region_cost
)

#: MachineModel fields the store calibrates, with their positivity
#: floors (property: a calibrated coefficient is never non-positive).
_COEFFICIENT_FLOORS = {
    "payload_cost_per_byte": 1e-9,
    "serial_region_cost": 1.0,
    "threads_region_cost": 1.0,
    "compiled_speedup": 0.1,
}

#: Minimum bytes a dispatch must have shipped before its overhead
#: yields a ``payload_cost_per_byte`` sample.  A program whose whole
#: shared state is a handful of scalars ships a few hundred bytes per
#: region; dividing dispatch overhead by that denominator says nothing
#: about wire cost, and one such sample can whipsaw the EWMA by an
#: order of magnitude.  Below the floor the overhead is attributed
#: entirely to fixed dispatch.
PAYLOAD_SAMPLE_FLOOR = 1024

#: Per-label region-feedback fields persisted per program key, in the
#: order ``region_feedback`` returns them.
_REGION_FIELDS = ("payload_bytes", "compiled_speedup")


def _finite(value):
    return type(value) in (int, float) and math.isfinite(value)  # no bool


def _usable(sample):
    return _finite(sample) and sample > 0


def _feedback(sample):
    return _finite(sample) and sample >= 0


def _count(value):
    return type(value) is int and value >= 0


class CalibrationStore:
    """Measured MachineModel coefficients + per-program region feedback.

    One store per session (or one per profile file, shared by many
    sessions through :meth:`save`/:meth:`load`).  ``version`` increments
    on every accepted observation; the session folds it into the cache
    keys of the calibration-affected stages so a fresh observation
    re-plans without rebuilding the dependence graphs.
    """

    def __init__(self, path=None):
        self.path = path
        self.coefficients = {}  # name -> {"value", "samples", "rejected"}
        self.programs = {}  # program key -> {label -> {field -> ewma}}
        self.runs = 0
        self.version = 0
        if path:
            self.load()

    # -- EWMA plumbing ---------------------------------------------------------

    def _entry(self, name):
        return self.coefficients.setdefault(
            name, {"value": 0.0, "samples": 0, "rejected": 0}
        )

    def _update(self, name, sample):
        """Fold one coefficient sample in; returns True when accepted."""
        if not _usable(sample):
            return False
        sample = max(_COEFFICIENT_FLOORS[name], sample)
        entry = self._entry(name)
        if entry["samples"] >= OUTLIER_MIN_SAMPLES and entry["value"] > 0:
            ratio = sample / entry["value"]
            if ratio > OUTLIER_FACTOR or ratio < 1.0 / OUTLIER_FACTOR:
                entry["rejected"] += 1
                return False
        if entry["samples"] == 0:
            entry["value"] = sample
        else:
            entry["value"] = (1.0 - DECAY) * entry["value"] + DECAY * sample
        entry["samples"] += 1
        return True

    def _update_region(self, program_key, label, field, sample):
        if not _feedback(sample):
            return False
        regions = self.programs.setdefault(program_key, {})
        entry = regions.setdefault(label, {})
        previous = entry.get(field)
        entry[field] = (
            sample if previous is None
            else (1.0 - DECAY) * previous + DECAY * sample
        )
        return True

    # -- observation -----------------------------------------------------------

    def observe_run(self, parallel_regions, program_key=None):
        """Distill one run's :class:`RegionStats` into coefficient samples.

        Returns True when anything was accepted (and ``version`` moved).
        Recovery-inflated regions are dropped before any estimator sees
        them, so faulted runs never poison the model.
        """
        clean = [
            region for region in parallel_regions
            if not region.recovery_inflated
        ]
        if not clean:
            return False
        accepted = self._observe_overheads(clean)
        accepted |= self._observe_feedback(clean, program_key)
        if accepted:
            self.runs += 1
            self.version += 1
        return accepted

    def _steps_per_second(self, regions):
        steps = seconds = 0.0
        for region in regions:
            for worker in region.per_worker:
                if worker["steps"] and worker["seconds"] > 0:
                    steps += worker["steps"]
                    seconds += worker["seconds"]
        return steps / seconds if seconds > 0 else None

    def _observe_overheads(self, regions):
        """Dispatch-overhead estimators (threads / serial / per-byte).

        One sample per *run*, not per dispatch: a single dispatch's
        wall-minus-compute overhead is millisecond-scale scheduling
        jitter, while the mean over a run's dozens of dispatches is a
        usable signal.  The EWMA then smooths run-means across runs.
        """
        rate = self._steps_per_second(regions)
        if not rate:
            return False
        dispatch_steps = []  # fixed-dispatch overhead, one per dispatch
        wire_steps = 0.0     # overhead attributed to serialization
        wire_bytes = 0
        for region in regions:
            overhead = region.dispatch_overhead
            if region.compute_seconds <= 0 or overhead <= 0:
                continue  # untimed workers (simulated oracle) or noise
            overhead_steps = overhead * rate
            payload_bytes = region.payload_bytes
            if region.payloads and payload_bytes >= PAYLOAD_SAMPLE_FLOOR:
                # Processes dispatch: half the overhead is attributed to
                # fixed dispatch, half to putting the bytes on the wire.
                dispatch_steps.append(overhead_steps / 2.0)
                wire_steps += overhead_steps / 2.0
                wire_bytes += payload_bytes
            elif region.payloads:
                # The region's whole state is tiny: the overhead is
                # all fixed dispatch, and overhead/bytes would be a
                # garbage per-byte sample.
                dispatch_steps.append(overhead_steps)
            elif "threads" in region.backend or region.backend == "serial":
                dispatch_steps.append(overhead_steps)
        accepted = False
        if dispatch_steps:
            bar = sum(dispatch_steps) / len(dispatch_steps)
            accepted |= self._update("threads_region_cost", bar)
            accepted |= self._update(
                "serial_region_cost", bar * _SERIAL_RATIO
            )
        if wire_bytes:
            accepted |= self._update(
                "payload_cost_per_byte", wire_steps / wire_bytes
            )
        return accepted

    def _observe_feedback(self, regions, program_key):
        """Per-label wire feedback + the global compiled-speedup prior."""
        feedback = region_feedback(regions)
        compiled_speedup = feedback[-1]
        accepted = False
        for speedup in compiled_speedup.values():
            accepted |= self._update("compiled_speedup", speedup)
        if program_key is not None:
            for field, by_label in zip(_REGION_FIELDS, feedback):
                for label, value in by_label.items():
                    accepted |= self._update_region(
                        program_key, label, field, float(value)
                    )
        return accepted

    # -- projection ------------------------------------------------------------

    def measured_coefficients(self):
        """name -> (value, samples) for coefficients with observations."""
        return {
            name: (entry["value"], entry["samples"])
            for name, entry in sorted(self.coefficients.items())
            if entry["samples"]
        }

    def calibrated_machine(self, base=None):
        """``base`` with every measured coefficient replacing its prior.

        Integer-typed thresholds round (floored at 1); every projected
        value respects the positivity bounds, so the returned model is
        always a legal planning input.
        """
        base = base if base is not None else DEFAULT_MACHINE
        changes = {}
        for name, (value, _samples) in self.measured_coefficients().items():
            value = max(_COEFFICIENT_FLOORS[name], value)
            if isinstance(getattr(base, name), int):
                value = max(1, int(round(value)))
            changes[name] = value
        return dataclasses.replace(base, **changes) if changes else base

    def region_feedback(self, program_key):
        """``(payload_bytes, compiled_speedup)`` label maps.

        The same shape ``region_feedback()`` produces, ready for
        ``price_plan``; empty dicts when the program was never
        observed.
        """
        regions = self.programs.get(program_key, {})
        result = tuple(
            {
                label: entry[field]
                for label, entry in regions.items()
                if field in entry
            }
            for field in _REGION_FIELDS
        )
        payload_bytes, compiled_speedup = result
        payload_bytes = {
            label: int(round(value))
            for label, value in payload_bytes.items()
        }
        return payload_bytes, compiled_speedup

    # -- persistence -----------------------------------------------------------

    def to_dict(self):
        return {
            "schema": PROFILE_SCHEMA,
            "runs": self.runs,
            "version": self.version,
            "machine": {
                name: dict(entry)
                for name, entry in sorted(self.coefficients.items())
            },
            "programs": {
                key: {label: dict(entry) for label, entry in regions.items()}
                for key, regions in sorted(self.programs.items())
            },
        }

    def from_dict(self, data):
        """Adopt a saved profile, dropping whatever does not parse: a
        wrong top-level shape adopts nothing (False), a malformed entry
        is skipped as an unknown coefficient is."""
        if not isinstance(data, dict) or data.get("schema") != PROFILE_SCHEMA:
            return False
        runs = data.get("runs", 0)
        version = data.get("version", runs)
        machine = data.get("machine", {})
        programs = data.get("programs", {})
        if not (_count(runs) and _count(version) and isinstance(machine, dict)
                and isinstance(programs, dict)):
            return False
        self.runs, self.version = runs, version
        self.coefficients = {}
        for name, entry in machine.items():
            if name not in _COEFFICIENT_FLOORS or not isinstance(entry, dict):
                continue  # a newer writer's coefficient: skip, don't crash
            value = entry.get("value")
            samples = entry.get("samples", 1)
            rejected = entry.get("rejected", 0)
            if _usable(value) and _count(samples) and _count(rejected):
                self.coefficients[name] = {
                    "value": float(value), "samples": samples,
                    "rejected": rejected,
                }
        self.programs = {
            key: {
                label: {
                    field: float(value)
                    for field, value in entry.items()
                    if field in _REGION_FIELDS and _feedback(value)
                }
                for label, entry in regions.items()
                if isinstance(entry, dict)
            }
            for key, regions in programs.items()
            if isinstance(regions, dict)
        }
        return True

    def load(self, path=None):
        """Read the profile file; a missing/stale/corrupt file is empty."""
        path = path if path is not None else self.path
        if not path or not os.path.exists(path):
            return False
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return False
        return self.from_dict(data)

    def save(self, path=None):
        path = path if path is not None else self.path
        if not path:
            return None
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        # Write beside the profile, then rename over it: a dump that
        # fails part-way leaves the previous profile whole.
        scratch = path + ".tmp"
        try:
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(scratch, path)
        except BaseException:
            os.unlink(scratch)
            raise
        return path

    # -- reporting -------------------------------------------------------------

    def describe(self, base=None):
        """Printable calibrated-vs-static coefficient table."""
        base = base if base is not None else DEFAULT_MACHINE
        lines = [
            f"calibration profile: {self.path or '(in-memory)'} — "
            f"{self.runs} run(s) observed"
        ]
        header = (
            f"{'coefficient':24} {'static':>12} {'calibrated':>12} "
            f"{'samples':>8} {'rejected':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        calibrated = self.calibrated_machine(base)
        for name in sorted(_COEFFICIENT_FLOORS):
            entry = self.coefficients.get(name)
            static = getattr(base, name)
            if entry and entry["samples"]:
                measured = getattr(calibrated, name)
                shown = (
                    f"{measured:>12.4g}" if isinstance(measured, float)
                    else f"{measured:>12}"
                )
                lines.append(
                    f"{name:24} {static:>12} {shown} "
                    f"{entry['samples']:>8} {entry['rejected']:>9}"
                )
            else:
                lines.append(
                    f"{name:24} {static:>12} {'(static)':>12} "
                    f"{0:>8} {0:>9}"
                )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"<CalibrationStore path={self.path!r} runs={self.runs} "
            f"coefficients={len(self.measured_coefficients())}>"
        )
