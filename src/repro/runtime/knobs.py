"""Environment knobs for the runtime, read in one place.

Two switches arm an oracle or inject chaos over an *unmodified* run —
the ``VERIFY_COMPILED`` cross-check and the ``REPRO_FAULTS`` harness —
because they must reach code (a whole test suite, a pool worker) that
no caller can hand an argument to.  Everything that changes what a run
*does* is a :class:`~repro.pipeline.config.SessionConfig` field or a
keyword argument, and nothing outside this module reads ``os.environ``.

Code reads a knob as ``knobs.NAME`` at the point of use, so a test may
assign one for a process-local override; :func:`refresh` (which the
test suite runs around every test) restores the environment's value.
README's "Environment knobs" table says what each one does.
"""

import os

_FALSY = ("", "0", "false", "no", "off")

VERIFY_COMPILED = False
REPRO_FAULTS = ""


def refresh():
    """Re-read both knobs from the environment."""
    global VERIFY_COMPILED, REPRO_FAULTS
    verify = os.environ.get("VERIFY_COMPILED", "")
    VERIFY_COMPILED = verify.strip().lower() not in _FALSY
    REPRO_FAULTS = os.environ.get("REPRO_FAULTS", "").strip()


def as_dict():
    """Current knob values by name."""
    return {"REPRO_FAULTS": REPRO_FAULTS, "VERIFY_COMPILED": VERIFY_COMPILED}


refresh()
