"""Runtime support for compiled chunks: helpers, fallback, verify oracle.

Generated chunk functions close over this module (the ``H`` argument of
the generated factory) for everything the interpreter's operator tables
do out-of-line: truncating division, the guarded ``math.*`` unary ops,
and the :class:`EmulationError`/:class:`Bailout` types.

:func:`execute_chunk` is the single entry the backends call per
``(loop, iterations)`` segment.  It runs the compiled body when one
exists, falls back to ``shim.run_chunk`` on a missing entry or a
:class:`Bailout` (a live-in the frame does not carry, or an index the
chunk's entry proof cannot place in bounds — raised before any side
effect), and under ``VERIFY_COMPILED`` runs *both* and diffs
their write logs, outputs, and step counts in-process, keeping the
interpreted run's effects (the interpreter is the authority).
"""

import re

from repro.util.errors import EmulationError


class Bailout(Exception):
    """The compiled entry section failed; re-run the chunk interpreted.

    Raised only before the chunk's first side effect (all entry
    bindings — induction storage, live-in registers, arguments,
    globals — and the once-per-chunk bounds proof happen up front), so
    the interpreter fallback replays the chunk from an untouched state
    and raises whatever the chunk really raises, where it raises it.
    """


# -- helpers the generated code binds as locals --------------------------------
#
# The interpreter's own operator tables: one definition, one error text.

from repro.emulator.interp import (  # noqa: E402,F401
    BINARY, CASTS, UNARY, _trunc_div as trunc_div, binary_function,
)
from repro.emulator.profile import close_instance  # noqa: E402,F401

trunc_rem = BINARY["rem"]
u_not = UNARY["not"]
u_sqrt = UNARY["sqrt"]
u_sin = UNARY["sin"]
u_cos = UNARY["cos"]
u_exp = UNARY["exp"]
u_log = UNARY["log"]
u_floor = UNARY["floor"]

#: The two operations generated source spells as a Python builtin,
#: ``int(x)`` for a ``float_to_int`` cast and ``pow(a, b)`` on floats:
#: the source is exec'd with these as its globals, so they resolve to
#: the guarded versions (``int(inf)`` is an EmulationError, not an
#: OverflowError) without a binding line in every generated function.
GENERATED_GLOBALS = {
    "int": CASTS["float_to_int"],
    "pow": binary_function("pow", False),
}


def expand_iteration(table, layout, key):
    """Intern the iteration a profiled body closed with block-level ``key``.

    ``layout`` (``_ProfiledLowering._layout``) names what each position
    of the key counts: ``key`` is one execution count per block, then
    one callee-step total per call site, then — for a loop that nests
    others — the tuple of child instance shapes.  Runs once per distinct
    key; the per-iteration path is a dict hit on the key itself.
    """
    block_uids, call_uids, nested = layout
    counts = {}
    for executed, uids in zip(key, block_uids):
        if executed:
            counts.update(dict.fromkeys(uids, executed))
    for extra, uid in zip(key[len(block_uids):], call_uids):
        if extra:
            counts[uid] += extra
    return table.iteration(counts, key[-1] if nested else ())


_REGISTER_LOCAL = re.compile(r"_r(\d+)(?:_[so])?$")


def unbound_register(error):
    """Map a generated-code ``UnboundLocalError`` to the interpreter's.

    Sequential-stretch bodies keep SSA registers as plain Python locals;
    a register whose defining block never executed is an *unbound local*
    where the interpreter's lazy frame raises ``use of unexecuted
    instruction %<uid>``.  Returns that :class:`EmulationError` for a
    ``_r<uid>`` local, or the original error for anything else (a
    codegen bug should stay loud and recognizable).
    """
    name = getattr(error, "name", None)
    if not name:
        found = re.search(r"'(_r\d+(?:_[so])?)'", str(error))
        name = found.group(1) if found else ""
    match = _REGISTER_LOCAL.match(name or "")
    if match is None:
        return error
    return EmulationError(
        f"use of unexecuted instruction %{match.group(1)}"
    )


# -- chunk execution -----------------------------------------------------------


def execute_chunk(entry, shim, loop, frame, iterations, locks,
                  verify=False, outer=None):
    """Run one chunk; returns ``"compiled"`` or ``"interpreted"``.

    ``entry`` is a :class:`~repro.codegen.lower.CompiledChunk` (or
    ``None`` for a loop the lowering refused); ``shim`` is the backend's
    ``_WorkerInterpreter``.  One body per loop: the backends pass the
    plain entry, and a logged twin only under ``verify`` — the oracle
    rolls the compiled run back by its write-log marks and diffs them
    against the interpreted run's.
    ``outer`` (an interchanged nest's outer loop) means ``iterations``
    are ``(outer, inner)`` pairs; the entry, when given, must have been
    compiled with the same ``outer``.
    """
    if entry is not None:
        if verify:
            return _verified_chunk(entry, shim, loop, frame, iterations,
                                   locks, outer)
        try:
            entry.fn(shim, frame, iterations)
            return "compiled"
        except Bailout:
            pass
    shim.run_chunk(loop, frame, iterations, locks, outer=outer)
    return "interpreted"


def _verified_chunk(entry, shim, loop, frame, iterations, locks, outer):
    """:func:`_differential` over one chunk; returns the mode.

    Safe under the threads backend because compiled-eligible regions
    hold no critical sections — a correct DOALL's shared writes are
    disjoint across workers, so one worker's scratch rollback cannot
    race another worker's reads.
    """
    mode, _value = _differential(
        entry, shim, "chunk",
        lambda: entry.fn(shim, frame, iterations),
        lambda: shim.run_chunk(loop, frame, iterations, locks, outer=outer),
    )
    return mode


def _log_image(log):
    """``(storage-id, slot) -> (before, after)`` for a run's write log.

    Read *before* the writes are rolled back: ``after`` is the slot's
    current (post-run) value.
    """
    return {
        key: (before, storage[key[1]])
        for key, (storage, before) in log.items()
    }


def _merge_log(real_log, scratch):
    """Fold a scratch run's marks into the caller's log (first-write wins)."""
    if real_log is None:
        return
    for key, entry in scratch.items():
        real_log.setdefault(key, entry)


def _differential(entry, state, noun, run_compiled, run_interpreted,
                  observable=None, compare_values=False):
    """The ``VERIFY_COMPILED`` oracle; returns ``(mode, interpreted value)``.

    The compiled thunk executes first against a scratch write log
    (installed on ``state`` — the shim or the parent interpreter; the
    interpreter's stores read ``write_log`` as they run), its image
    (writes, output slice, step delta, return value) is captured, and
    every one of its writes is rolled back.  The interpreted thunk then
    executes from the identical pre-run state and its effects *stay* —
    so a divergence aborts with the authoritative state in place.  A
    :class:`Bailout` is not a divergence (the frame lacks
    a live-in the compiled entry binds eagerly): plain interpreter
    fallback.

    ``observable`` restricts the write-log diff to those storage ids;
    ``compare_values`` adds the two thunks' return values to the diff.
    """
    def image(log):
        writes = _log_image(log)
        if observable is None:
            return writes
        return {
            key: value for key, value in writes.items()
            if key[0] in observable
        }

    real_log = state.write_log
    out_mark = len(state.output)
    step_mark = state.steps
    scratch = {}
    state.write_log = scratch
    bailed = False
    compiled_error = None
    compiled_value = None
    try:
        compiled_value = run_compiled()
    except Bailout:
        bailed = True
    except Exception as error:
        compiled_error = error
    finally:
        state.write_log = real_log
    compiled_writes = image(scratch)
    compiled_output = state.output[out_mark:]
    compiled_steps = state.steps - step_mark
    for (_storage_id, slot), (storage, before) in scratch.items():
        storage[slot] = before  # undo the compiled run's writes
    del state.output[out_mark:]
    state.steps = step_mark

    if bailed:
        return "interpreted", run_interpreted()

    interp_scratch = {}
    state.write_log = interp_scratch
    try:
        interp_value = run_interpreted()
    except Exception as error:
        _merge_log(real_log, interp_scratch)
        if compiled_error is None:
            raise EmulationError(
                f"VERIFY_COMPILED divergence at {entry.label}: compiled "
                f"{noun} succeeded but the interpreter raised "
                f"{type(error).__name__}: {error}"
            ) from error
        raise  # both paths failed: the interpreted error is authoritative
    finally:
        state.write_log = real_log
    interp_writes = image(interp_scratch)
    _merge_log(real_log, interp_scratch)
    interp_output = state.output[out_mark:]
    interp_steps = state.steps - step_mark

    if compiled_error is not None:
        raise EmulationError(
            f"VERIFY_COMPILED divergence at {entry.label}: compiled {noun} "
            f"raised {type(compiled_error).__name__}: {compiled_error} "
            f"but the interpreter succeeded"
        ) from compiled_error
    problems = []
    if compiled_writes != interp_writes:
        extra = sorted(set(compiled_writes) - set(interp_writes))
        missing = sorted(set(interp_writes) - set(compiled_writes))
        changed = sorted(
            key
            for key in set(compiled_writes) & set(interp_writes)
            if compiled_writes[key] != interp_writes[key]
        )
        problems.append(
            f"write logs differ (extra={extra!r} missing={missing!r} "
            f"changed={changed!r})"
        )
    if compiled_output != interp_output:
        problems.append(
            f"outputs differ (compiled={compiled_output!r} "
            f"interpreted={interp_output!r})"
        )
    if compiled_steps != interp_steps:
        problems.append(
            f"step counts differ (compiled={compiled_steps} "
            f"interpreted={interp_steps})"
        )
    if compare_values and (
        compiled_value != interp_value
        or type(compiled_value) is not type(interp_value)
    ):
        problems.append(
            f"return values differ (compiled={compiled_value!r} "
            f"interpreted={interp_value!r})"
        )
    if problems:
        raise EmulationError(
            f"VERIFY_COMPILED divergence at {entry.label}: "
            + "; ".join(problems)
        )
    return "compiled", interp_value


# -- sequential-stretch execution ----------------------------------------------


def execute_sequence(entry, interp, function, args, interpret,
                     verify=False):
    """Run one function body; returns ``(mode, return value)``.

    ``entry`` is a :class:`~repro.codegen.seq.CompiledSequence` (or
    ``None`` for a refused function); ``interp`` is the parent
    :class:`~repro.runtime.executor.ParallelInterpreter`; ``interpret``
    is the *base* interpreter loop (``Interpreter._run_function`` bound
    to ``interp``), used for the Bailout fallback and as the verify
    authority.  Under ``verify`` the caller must pass a *logged* entry
    for a function with no region stops (region dispatch is not
    replayable).
    """
    from repro.emulator.interp import _Frame

    if entry is None:
        return "interpreted", interpret(function, args)
    if verify:
        return _verified_sequence(entry, interp, function, args,
                                  interpret)
    try:
        return "compiled", entry.fn(interp, _Frame(function, args))
    except Bailout:
        return "interpreted", interpret(function, args)


def _verified_sequence(entry, interp, function, args, interpret):
    """Run the function compiled *and* interpreted; diff; keep interpreted.

    The function-level use of :func:`_differential`: nested interpreted
    calls log to the same scratch log, and the return value joins the
    diff.  Only called for functions whose call graph reaches no
    parallel region: a region dispatch is not replayable.

    The write-log diff only compares *observable* storages — globals
    and pointer arguments.  Each run builds its own frame, so its
    function-local allocas are fresh objects whose ids can never match
    across runs, and they are unreachable once the call returns (the IR
    has no channel for a pointer to escape except the return value,
    which is compared directly).
    """
    from repro.emulator.interp import _Frame

    observable = {
        id(storage) for storage in interp._global_storage.values()
    }
    for value in args:
        if type(value) is tuple and len(value) == 2:
            observable.add(id(value[0]))
    return _differential(
        entry, interp, "body",
        lambda: entry.fn(interp, _Frame(function, args)),
        lambda: interpret(function, args),
        observable=observable, compare_values=True,
    )
