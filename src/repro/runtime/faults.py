"""Deterministic fault injection for the supervised processes backend.

The ``REPRO_FAULTS`` knob carries a scenario spec — e.g.
``crash:region=2:worker=1;hang:p=0.05:seed=7`` — that the pool dispatch
path consults before submitting each worker payload.  Scenarios are
seeded and selector-driven, so a chaos run is exactly reproducible: the
same spec against the same plan injects the same faults in the same
places, in tests, CI, and at a debugger prompt.

Spec grammar (scenarios separated by ``;`` or ``,``; fields by ``:``;
the first field is the kind, the rest are ``key=value``):

================  ====================================================
``crash``         the worker process calls ``os._exit(3)`` mid-region
``hang``          the worker sleeps ``s=`` seconds (default 60) —
                  long enough to trip the region deadline
``corrupt_wire``  the payload's delta bytes are flipped before pickle
                  sees them (guaranteed decode failure, never silent
                  garbage)
``drop_result``   the parent discards the worker's completed result,
                  as a lost wire message would
================  ====================================================

Selectors: ``region=N`` matches the N-th region *dispatch* of the
process (a global ordinal that counts retries separately), ``worker=K``
matches the K-th payload of a region, ``p=<float>`` with ``seed=<int>``
draws per (region, worker) from a string-seeded ``random.Random`` (so
draws agree across processes and runs), and ``times=N`` bounds how many
times the scenario fires (default 1; ``times=0`` is unlimited).
"""

import dataclasses
import os
import random
import time

from repro.util.errors import PlanError

from . import knobs

_KINDS = ("crash", "hang", "corrupt_wire", "drop_result")


@dataclasses.dataclass
class FaultScenario:
    """One parsed scenario from the ``REPRO_FAULTS`` spec."""

    kind: str
    region: int | None = None
    worker: int | None = None
    p: float | None = None
    seed: int = 0
    times: int = 1
    seconds: float = 60.0
    injected: int = 0

    def matches(self, region, worker):
        """Does this scenario fire for payload ``worker`` of ``region``?"""
        if self.times and self.injected >= self.times:
            return False
        if self.region is not None and region != self.region:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        if self.p is not None:
            draw = random.Random(f"{self.seed}:{region}:{worker}")
            if draw.random() >= self.p:
                return False
        return True

    def directive(self):
        """The in-child action tuple shipped alongside the payload."""
        if self.kind == "hang":
            return ("hang", self.seconds)
        return (self.kind,)


class FaultPlan:
    """All scenarios of one spec, with per-scenario injection budgets."""

    def __init__(self, scenarios):
        self.scenarios = list(scenarios)

    @classmethod
    def from_spec(cls, spec):
        """Parse a ``REPRO_FAULTS`` spec string; raises PlanError."""
        scenarios = []
        for clause in spec.replace(",", ";").split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, rest = clause.partition(":")
            kind = kind.strip()
            if kind not in _KINDS:
                raise PlanError(
                    f"unknown fault kind {kind!r} in REPRO_FAULTS "
                    f"(choose from {', '.join(_KINDS)})"
                )
            scenario = FaultScenario(kind)
            for field in filter(None, rest.split(":")):
                key, sep, value = field.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep:
                    raise PlanError(
                        f"malformed fault field {field!r} in "
                        f"REPRO_FAULTS clause {clause!r}"
                    )
                try:
                    if key == "region":
                        scenario.region = int(value)
                    elif key == "worker":
                        scenario.worker = int(value)
                    elif key == "p":
                        scenario.p = float(value)
                    elif key == "seed":
                        scenario.seed = int(value)
                    elif key == "times":
                        scenario.times = int(value)
                    elif key == "s":
                        scenario.seconds = float(value)
                    else:
                        raise PlanError(
                            f"unknown fault selector {key!r} in "
                            f"REPRO_FAULTS clause {clause!r}"
                        )
                except ValueError as exc:
                    raise PlanError(
                        f"bad fault value {value!r} for {key!r} in "
                        f"REPRO_FAULTS clause {clause!r}"
                    ) from exc
            scenarios.append(scenario)
        return cls(scenarios)

    def draw(self, region, worker):
        """First matching scenario (consuming its budget), or None."""
        for scenario in self.scenarios:
            if scenario.matches(region, worker):
                scenario.injected += 1
                return scenario
        return None

    def __bool__(self):
        return bool(self.scenarios)


# -- module state: the active plan and the region dispatch counter ------------

_ACTIVE_SPEC = None
_ACTIVE_PLAN = None
_REGION_ORDINAL = 0


def active_plan():
    """The FaultPlan for the current ``REPRO_FAULTS`` value, or None.

    Parsed once per distinct spec string; scenario budgets persist
    across regions until :func:`reset` (the test-suite fixture) or a
    spec change.
    """
    global _ACTIVE_SPEC, _ACTIVE_PLAN
    spec = knobs.REPRO_FAULTS.strip()
    if spec != _ACTIVE_SPEC:
        _ACTIVE_SPEC = spec
        _ACTIVE_PLAN = FaultPlan.from_spec(spec) if spec else None
    return _ACTIVE_PLAN


def next_region_ordinal():
    """Allocate the next region-dispatch ordinal (counts retries too)."""
    global _REGION_ORDINAL
    ordinal = _REGION_ORDINAL
    _REGION_ORDINAL += 1
    return ordinal


def reset():
    """Forget the parsed plan, its budgets, and the region counter."""
    global _ACTIVE_SPEC, _ACTIVE_PLAN, _REGION_ORDINAL
    _ACTIVE_SPEC = None
    _ACTIVE_PLAN = None
    _REGION_ORDINAL = 0


def perform(directive):
    """Execute an in-child fault directive (crash or hang)."""
    if directive[0] == "crash":
        os._exit(3)
    elif directive[0] == "hang":
        time.sleep(directive[1])
