"""Environment knobs for the runtime, read in one place.

The registry holds exactly the switches that arm an oracle or inject
chaos over an *unmodified* run — the ``VERIFY_COMPILED`` cross-check and
the ``REPRO_FAULTS`` harness — because those must reach code (a whole
test suite, a pool worker) that no caller can hand an argument to.
Everything that changes what a run *does* (the engine, calibration,
replanning, speculation) is a
:class:`~repro.pipeline.config.SessionConfig` field or a keyword
argument, and nothing outside this module reads ``os.environ``.

Each knob is a :class:`Knob` instance that

* parses the same falsy set everywhere (``"" 0 false no off``),
* is truthy/falsy directly (``if knobs.VERIFY_COMPILED:``), and
* can be re-read from the environment with :func:`refresh` — the test
  suite calls that around every test so env-based tests compose.

Tests may also assign ``knob.value = True`` (or monkeypatch
``payload.VERIFY_COMPILED``, which re-exports the knob) for a
process-local override; ``refresh()`` restores the environment's verdict.
"""

import os

_FALSY = ("", "0", "false", "no", "off")


def _parse_flag(raw):
    return raw.lower() not in _FALSY


class Knob:
    """One environment knob with a cached, refreshable value.

    A ``bool`` default makes a flag, parsed with the falsy set; any
    other default makes a typed setting, parsed with the default's
    type.  Unparseable values fall back to the default rather than
    raising at import.
    """

    __slots__ = ("name", "default", "value", "doc", "parse")

    def __init__(self, name, default=False, doc=""):
        self.name = name
        self.default = default
        self.doc = doc
        self.parse = (
            _parse_flag if isinstance(default, bool) else type(default)
        )
        self.value = self._read()

    def _read(self):
        raw = os.environ.get(self.name)
        if raw is None:
            return self.default
        try:
            return self.parse(raw.strip())
        except ValueError:
            return self.default

    def refresh(self):
        """Re-read the environment; returns the new value."""
        self.value = self._read()
        return self.value

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"Knob({self.name}={self.value!r})"


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
    elif knob.default != default or type(knob.default) is not type(default):
        raise ValueError(
            f"knob {name} already registered with default="
            f"{knob.default!r}; conflicting re-registration with "
            f"default={default!r}"
        )
    elif doc and not knob.doc:
        knob.doc = doc
    return knob


#: The spelling for typed (str/int/float default) knobs.
setting = flag


def refresh():
    """Re-read every registered knob from the environment."""
    for knob in _KNOBS.values():
        knob.refresh()


def as_dict():
    """Current knob values by name (diagnostics / tests)."""
    return {name: knob.value for name, knob in sorted(_KNOBS.items())}


def snapshot():
    """Full registry state, name -> {default, value, doc}.

    The docs' env-knob table is generated from this (and a test pins
    the table to it), so README switches can never drift from the
    registry.
    """
    return {
        name: {"default": knob.default, "value": knob.value, "doc": knob.doc}
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


VERIFY_COMPILED = flag(
    "VERIFY_COMPILED",
    doc="Run every compiled chunk (and sequential stretch, and the "
        "profile stage's run) twice — compiled then interpreted — and "
        "fail loudly unless storage images, outputs, and step counts "
        "(for the profile: shapes, output, steps, final globals) are "
        "identical. The interpreted run's effects are kept; an armed "
        "`threads` region runs its workers in turn. Travels in the "
        "payload.",
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
