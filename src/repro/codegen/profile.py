"""The profile run: the profiled function's instrumented compiled body.

:func:`profile_function` is what the pipeline's ``profile`` stage calls.
It executes the program once, sequentially, through
:func:`repro.codegen.seq.compile_profiled` — the sequence tier's
lowering (promoted scalars, counted loops, the array tier) with the loop
events at their fixed positions on the loop tree, and a counted loop of
one straight segment recorded once per instance; callees through their
plain compiled sequences — and returns the interpreter's
:class:`~repro.emulator.interp.ExecutionResult` with the loop-nest
profile already interned into shapes.  The interpreter and its
:class:`~repro.emulator.profile.Profiler`, which interns into the same
kind of table as it runs, are the engine for a function the lowering
refuses — an instruction, or a CFG the walk does not nest;
the refusal names the block and is recorded on the profile, never
silent — and, under ``verify`` (``VERIFY_COMPILED``), the reference
both runs are diffed against.
"""

from repro.codegen import cache as codegen_cache
from repro.codegen.lower import Unsupported
from repro.codegen.runtime import Bailout, execute_sequence
from repro.codegen.seq import compile_profiled
from repro.emulator.interp import ExecutionResult, Interpreter, _Frame
from repro.emulator.profile import FunctionProfile, Profiler, ShapeTable
from repro.util.errors import EmulationError


class _CompiledCallees(Interpreter):
    """An interpreter whose calls run compiled (refused bodies interpret);
    a callee lowers over its own record, a sibling of ``analyses``."""

    def __init__(self, analyses):
        super().__init__(analyses.module)
        self.analyses = analyses

    def _run_function(self, function, args):
        entry = codegen_cache.compiled_sequence(
            self.analyses.of(function), ()
        )
        _mode, value = execute_sequence(
            entry, self, function, args, super()._run_function
        )
        return value


def profile_function(analyses, verify=False):
    """Run ``analyses.function`` once and profile it.

    ``analyses`` is the function's
    :class:`~repro.analysis.record.FunctionAnalyses`: the lowering walks
    its natural loops and reads its CFG, operand users and single-store
    locals, the interpreter tracks those loops, and each callee lowers
    over its sibling record.
    ``result.profile.engine`` says which engine ran and
    ``result.profile.refused`` why the compiled one did not.
    """
    try:
        entry = compile_profiled(analyses)
        if verify:
            return _verified(entry, analyses)
        return _run(entry, analyses, ShapeTable())[1]
    except Unsupported as refusal:
        refused = str(refusal)
    except Bailout:  # raised before the body's first side effect
        refused = "entry bindings bailed out"
    return _interpret(analyses, refused)[1]


def _run(entry, analyses, table):
    """``(interpreter, result)`` of the compiled profiled run."""
    interpreter = _CompiledCallees(analyses)
    function = analyses.function
    value, root, header_totals = entry.fn(
        interpreter, _Frame(function, []), table
    )
    profile = FunctionProfile(
        function.name, root, header_totals, "compiled"
    )
    return interpreter, ExecutionResult(
        list(interpreter.output), value, interpreter.steps, profile
    )


def _interpret(analyses, refused=None, table=None):
    """``(interpreter, result)`` of the interpreted run, its shapes
    interned into ``table`` (a fresh one by default)."""
    interpreter = Interpreter(analyses.module)
    name = analyses.function.name
    result = interpreter.run(
        name, profiler=Profiler(name, table), loops=analyses.loops
    )
    result.profile.refused = refused
    return interpreter, result


def _verified(entry, analyses):
    """Run both engines and diff them; the interpreter is the authority.

    Same contract as the chunk and sequence oracles
    (:func:`repro.codegen.runtime._differential`): an error both engines
    raise is the interpreter's, anything only one of them does is a
    ``VERIFY_COMPILED divergence``.  Each run owns a fresh interpreter,
    so the final globals are compared whole.
    """
    table = ShapeTable()
    compiled = compiled_error = None
    try:
        compiled = _run(entry, analyses, table)
    except Bailout:
        raise  # not a divergence: the caller falls back
    except Exception as error:
        compiled_error = error
    label = f"VERIFY_COMPILED divergence at {entry.label}"
    try:
        reference_interp, reference = _interpret(analyses, table=table)
    except Exception as error:
        if compiled_error is None:
            raise EmulationError(
                f"{label}: compiled profile run succeeded but the "
                f"interpreter raised {type(error).__name__}: {error}"
            ) from error
        raise
    if compiled_error is not None:
        raise EmulationError(
            f"{label}: compiled profile run raised "
            f"{type(compiled_error).__name__}: {compiled_error} but the "
            f"interpreter succeeded"
        ) from compiled_error
    compiled_interp, result = compiled
    problems = []
    if result.output != reference.output:
        problems.append(
            f"outputs differ (compiled={result.output!r} "
            f"interpreted={reference.output!r})"
        )
    if (result.steps, result.return_value) != (
        reference.steps, reference.return_value
    ):
        problems.append(
            f"steps/return value differ (compiled={result.steps}/"
            f"{result.return_value!r} interpreted={reference.steps}/"
            f"{reference.return_value!r})"
        )
    if compiled_interp._global_storage != reference_interp._global_storage:
        problems.append("final globals differ")
    # Interned into the compiled run's own table, an equal profile *is*
    # the compiled root.
    if reference.profile.shapes() is not result.profile.shapes():
        problems.append("profile shapes differ")
    totals = reference.profile.header_totals()
    if totals != result.profile.header_totals():
        problems.append(
            f"header totals differ (compiled="
            f"{result.profile.header_totals()!r} interpreted={totals!r})"
        )
    if problems:
        raise EmulationError(f"{label}: " + "; ".join(problems))
    return result
