"""Region-body compiler: DOALL chunks lowered to exec-compiled Python.

The parallel backends execute a worker's chunk of a planned loop by
walking the IR instruction-by-instruction (``_WorkerInterpreter
.run_chunk``).  This package lowers each of a region's member loops
into one generated Python function — the same storage slots, the same
step counts, the same ``EmulationError`` conditions — and
``exec``-compiles it so workers run native bytecode instead of the
dispatch loop.  One body per loop: the ``VERIFY_COMPILED`` oracle runs
that body too, against copies of the storages it can reach.

Division of labor:

* :mod:`repro.codegen.lower` — the lowering visitor over
  ``ir/instructions.py`` types and the one control-flow emitter, a
  structured walk of the loop forest; produces the chunk source and
  compiles it (or raises :class:`~repro.codegen.lower.Unsupported`).
* :mod:`repro.codegen.seq` — the same walk with the function as its
  outermost region (the sequential stretches around regions, each
  planned region one statement), and its profiled variant whose run
  *is* the loop-nest profile; :mod:`repro.codegen.profile` drives that
  run for the pipeline.
* :mod:`repro.codegen.cache` — per-module compiled-chunk cache plus the
  compile/hit/fallback/time counters diagnostics report.
* :mod:`repro.codegen.runtime` — the helpers generated code closes
  over, the interpreter-fallback driver :func:`execute_chunk`, and the
  ``VERIFY_COMPILED`` differential oracle.

The contract with the interpreter is *fallback, never fail*: any loop
or function the lowering refuses (or any codegen error) runs through
the interpreter exactly as before — the one fallback; a refusal names
the block (and instruction) that caused it.
"""

from repro.codegen.cache import compiled_chunk, reset, stats
from repro.codegen.lower import CompiledChunk, Unsupported, compile_chunk
from repro.codegen.runtime import Bailout, execute_chunk

__all__ = [
    "Bailout",
    "CompiledChunk",
    "Unsupported",
    "compile_chunk",
    "compiled_chunk",
    "execute_chunk",
    "reset",
    "stats",
]
