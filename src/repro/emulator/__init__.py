"""repro.emulator — reference interpreter, dynamic profiles, critical path."""

from repro.emulator.interp import run_source

__all__ = ["run_source"]
