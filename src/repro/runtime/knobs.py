"""Environment knobs for the runtime, read in one place.

The runtime's debug/verification modes are boolean environment
variables.  They used to be scattered module-level ``os.environ`` reads
inside ``runtime/payload.py``, which made two things awkward: a test
that monkeypatched the environment saw no effect (the module had read
it at import), and every new knob re-implemented the same falsy-string
parsing.  Each knob now lives here as a :class:`Knob` instance that

* parses the same falsy set everywhere (``"" 0 false no off``),
* is truthy/falsy directly (``if knobs.VERIFY_DIFFS:``), and
* can be re-read from the environment with :func:`refresh` — the test
  suite calls that around every test so env-based tests compose.

Tests may also assign ``knob.value = True`` (or monkeypatch the module
attributes that re-export these in ``payload.py``) for a process-local
override; ``refresh()`` restores the environment's verdict.
"""

import os

_FALSY = ("", "0", "false", "no", "off")


class Knob:
    """One boolean environment knob with a cached, refreshable value."""

    __slots__ = ("name", "default", "value", "doc")

    def __init__(self, name, default=False, doc=""):
        self.name = name
        self.default = default
        self.doc = doc
        self.value = self._read()

    def _read(self):
        raw = os.environ.get(self.name)
        if raw is None:
            return self.default
        return raw.strip().lower() not in _FALSY

    def refresh(self):
        """Re-read the environment; returns the new value."""
        self.value = self._read()
        return self.value

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"Knob({self.name}={bool(self.value)})"


class Setting(Knob):
    """A typed (non-boolean) environment knob: str, int, or float.

    Same lifecycle as :class:`Knob` — cached at registration, re-read by
    :func:`refresh`, assignable for process-local overrides — but the
    raw environment string is parsed with ``parse`` (the type of the
    default) instead of the boolean falsy-set.  Unparseable values fall
    back to the default rather than raising at import time.
    """

    __slots__ = ("parse",)

    def __init__(self, name, default, doc=""):
        self.parse = type(default)
        super().__init__(name, default, doc=doc)

    def _read(self):
        raw = os.environ.get(self.name)
        if raw is None:
            return self.default
        try:
            return self.parse(raw.strip())
        except ValueError:
            return self.default

    def __repr__(self):
        return f"Setting({self.name}={self.value!r})"


_KNOBS = {}


def flag(name, default=False, doc=""):
    """Register (or fetch) the knob for environment variable ``name``.

    Re-registering an existing name is fine — many modules share a
    knob — but only with the *same* default: a conflicting default
    would be silently ignored (the first registration won), leaving the
    loser convinced the knob behaves differently than it does.
    """
    knob = _KNOBS.get(name)
    if knob is None:
        knob = _KNOBS[name] = Knob(name, default, doc=doc)
    elif bool(knob.default) != bool(default):
        raise ValueError(
            f"knob {name} already registered with default="
            f"{knob.default!r}; conflicting re-registration with "
            f"default={default!r}"
        )
    elif doc and not knob.doc:
        knob.doc = doc
    return knob


def setting(name, default, doc=""):
    """Register (or fetch) a typed :class:`Setting` for ``name``.

    Same get-or-create/conflict rules as :func:`flag`, but the knob's
    value is parsed with ``type(default)`` (str/int/float) instead of
    boolean truthiness.
    """
    knob = _KNOBS.get(name)
    if knob is None:
        knob = _KNOBS[name] = Setting(name, default, doc=doc)
    elif not isinstance(knob, Setting) or knob.default != default:
        raise ValueError(
            f"knob {name} already registered with default="
            f"{knob.default!r}; conflicting re-registration with "
            f"default={default!r}"
        )
    elif doc and not knob.doc:
        knob.doc = doc
    return knob


def refresh():
    """Re-read every registered knob from the environment."""
    for knob in _KNOBS.values():
        knob.refresh()


def as_dict():
    """Current knob values by name (diagnostics / tests).

    Boolean knobs report ``bool``; typed :class:`Setting` knobs report
    their parsed value.
    """
    return {
        name: knob.value if isinstance(knob, Setting) else bool(knob)
        for name, knob in sorted(_KNOBS.items())
    }


def snapshot():
    """Full registry state, name -> {default, value, doc}.

    The docs' env-knob table is generated from this (and a test pins
    the table to it), so README switches can never drift from the
    registry.
    """
    def render(knob, value):
        if isinstance(knob, Setting):
            return value
        return bool(value)

    return {
        name: {
            "default": render(knob, knob.default),
            "value": render(knob, knob.value),
            "doc": knob.doc,
        }
        for name, knob in sorted(_KNOBS.items())
    }


def markdown_table():
    """The README's env-knob table, rendered from the registry.

    ``python -m repro knobs --markdown`` prints this, the README embeds
    it, and a drift test requires the embedded copy verbatim — so a new
    knob is a one-line ``flag(...)``/``setting(...)`` plus pasting the
    regenerated table.
    """
    lines = ["| Knob | Default | Effect |", "|---|---|---|"]
    for name, info in snapshot().items():
        default = info["default"]
        if isinstance(default, bool):
            default = "on" if default else "off"
        elif default == "":
            default = "(empty)"
        else:
            default = f"`{default}`"
        doc = " ".join(info["doc"].split())
        lines.append(f"| `{name}` | {default} | {doc} |")
    return "\n".join(lines)


VERIFY_DIFFS = flag(
    "VERIFY_DIFFS",
    doc="Cross-check the write-log diff against the reference snapshot "
        "diff in every pool chunk; fail loudly on divergence. Travels "
        "in the payload.",
)

VERIFY_PRELUDE = flag(
    "VERIFY_PRELUDE",
    doc="Ship the full state alongside every dirty delta and compare "
        "the delta-applied resident image against a fresh decode in "
        "the worker.",
)

VERIFY_COMPILED = flag(
    "VERIFY_COMPILED",
    doc="Run every compiled chunk (and sequential stretch) twice — "
        "compiled then interpreted — and fail loudly unless write-log "
        "diffs, outputs, and step counts are identical. The "
        "interpreted run's effects are kept. Travels in the payload.",
)

REPRO_COMPILE = flag(
    "REPRO_COMPILE",
    doc="Default for SessionConfig.compile_regions / the runtime's "
        "compile_regions=None: lower DOALL chunk bodies and the "
        "sequential stretches between regions to exec-compiled Python "
        "instead of the interpreter loop.",
)

REPRO_SPECULATE = flag(
    "REPRO_SPECULATE", default=True,
    doc="At -O3, let passes apply transforms whose static legality "
        "test is inconclusive and validate the candidate plan against "
        "the simulated oracle (seeded interleavings vs the sequential "
        "run) before any real backend sees it; off = inconclusive "
        "tests reject outright.",
)

REPRO_FAILOVER = flag(
    "REPRO_FAILOVER", default=True,
    doc="Graceful-degradation ladder: a region that exhausts its "
        "processes-backend retry budget fails over to the threads "
        "backend, then to serial interpretation, and the Session "
        "quarantine remembers the working rung for warm re-runs; off "
        "= exhausted retries raise immediately.",
)

REPRO_FAULTS = setting(
    "REPRO_FAULTS", "",
    doc="Fault-injection spec for chaos testing, e.g. "
        "`crash:region=2:worker=1;hang:p=0.05:seed=7` — scenarios "
        "separated by `;`, fields by `:`. Kinds: crash, hang, "
        "corrupt_wire, drop_result. Selectors: region=N (per-region "
        "dispatch ordinal), worker=K, p=<prob> with seed=<int>, "
        "times=N budget (default 1), s=<seconds> hang duration. Empty "
        "= no injection.",
)

REPRO_RETRY_BUDGET = setting(
    "REPRO_RETRY_BUDGET", 2,
    doc="Per-region retry budget for supervised processes dispatch: "
        "how many times an infrastructure failure (worker death, "
        "hang, poisoned payload) re-dispatches the region before the "
        "degradation ladder (or a RegionDispatchError) takes over.",
)

REPRO_RETRY_BACKOFF = setting(
    "REPRO_RETRY_BACKOFF", 0.05,
    doc="Base sleep (seconds) between region retries; attempt N waits "
        "base * 2^(N-1) after the pool respawn, bounding recovery "
        "storms under repeated faults.",
)

REPRO_REGION_TIMEOUT = setting(
    "REPRO_REGION_TIMEOUT", 0.0,
    doc="Per-region dispatch deadline (seconds) for the processes "
        "backend; 0 uses the step-budget allowance "
        "(max(120, max_steps / 50_000)). Lower it in chaos tests so "
        "injected hangs are detected quickly.",
)

REPRO_PROFILE = setting(
    "REPRO_PROFILE", "",
    doc="Path of the JSON calibration profile "
        "(machine-coefficient EWMAs + per-program region feedback). "
        "Sessions with calibration on load it at construction and "
        "append to it after each run, so warm sessions plan with "
        "measured numbers. Empty = in-memory only.",
)

REPRO_CALIBRATE = flag(
    "REPRO_CALIBRATE",
    doc="Default for SessionConfig.calibrate: distill each run's "
        "region stats into measured MachineModel coefficients "
        "(per-byte wire cost, dispatch overhead, prelude discount, "
        "compiled speedup) and plan subsequent runs with them instead "
        "of the static defaults.",
)

REPRO_ADAPTIVE = flag(
    "REPRO_ADAPTIVE",
    doc="Default for SessionConfig.adaptive / Session.run(adaptive=): "
        "mid-run replanning — after each region dispatch whose timings "
        "diverge from the plan's predictions, re-derive the remaining "
        "regions' cost-model choices (backend override, tile) through "
        "optimize_plan with the freshly calibrated machine model. "
        "Legality is untouched; only cost decisions move.",
)

REPRO_REPLAN_THRESHOLD = setting(
    "REPRO_REPLAN_THRESHOLD", 3.0,
    doc="Adaptive-replanning divergence trigger: a region whose "
        "dispatch overhead exceeds this multiple of its compute time, "
        "or whose measured bytes-per-payload land outside this factor "
        "of the planner's assumption, requests a replan of the "
        "remaining dispatches.",
)

REPRO_REPLAN_IMBALANCE = setting(
    "REPRO_REPLAN_IMBALANCE", 2.0,
    doc="Adaptive-replanning balance trigger: a region whose "
        "max-over-mean per-worker step count exceeds this factor "
        "requests a replan (workers with no iterations are excluded, "
        "as in the conformance suite's imbalance metric).",
)
