"""Knob hygiene and provenance: what a workload process may inherit.

The runtime reads eighteen environment knobs.  A benchmark that
inherits one measures something else under the same name, so the parent
scrubs them all before it starts a workload process, and the workload
process refuses to run if one survived.
"""

import os
import platform
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE_DIR = ROOT / "src"

_KNOB_PREFIXES = ("REPRO_", "VERIFY_")
_KNOB_NAMES = ("MEASURE_NAIVE", "RESIDENT_PRELUDE")


class BenchEnvError(Exception):
    """The environment would change what the benchmark measures."""


def is_knob(name):
    return name.startswith(_KNOB_PREFIXES) or name in _KNOB_NAMES


def nproc():
    return len(os.sched_getaffinity(0))


def scrubbed_env(environ):
    """``environ`` without runtime knobs, with a fixed hash seed."""
    if not (SOURCE_DIR / "repro").is_dir():
        raise BenchEnvError(
            f"the system under test is missing: no {SOURCE_DIR}/repro"
        )
    env = {name: value for name, value in environ.items()
           if not is_knob(name)}
    # Set and dict iteration order reaches the planner; pin it so call
    # counts and plans repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE_DIR)] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    return env


def check_env():
    """Raise :class:`BenchEnvError` unless this process may measure."""
    survivors = sorted(name for name in os.environ if is_knob(name))
    if survivors:
        raise BenchEnvError(
            "runtime knobs survived the scrub: " + ", ".join(survivors)
        )
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise BenchEnvError(
            "PYTHONHASHSEED is not 0: start workloads through run.py"
        )
    if nproc() < 2:
        raise BenchEnvError(
            f"{nproc()} usable core(s): a workload is pinned to one and "
            "needs another for everything else on the box"
        )


def _git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(cores):
    """Where and on what a result was measured (``cores``: usable ones)."""
    from repro.runtime import knobs

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": cores,
        "knobs": knobs.as_dict(),
    }
