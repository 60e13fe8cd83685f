"""repro.emulator — reference interpreter, dynamic profiles, critical path."""

from repro.emulator.interp import Interpreter, run_module, run_source
from repro.emulator.profile import Profiler

__all__ = [
    "Interpreter",
    "run_module",
    "run_source",
    "Profiler",
]
