"""Runtime support for compiled chunks: helpers, fallback, verify oracle.

Generated chunk functions close over this module (the ``H`` argument of
the generated factory) for everything the interpreter's operator tables
do out-of-line: truncating division, the guarded ``math.*`` unary ops,
and the :class:`EmulationError`/:class:`Bailout` types.

:func:`execute_chunk` is the single entry the backends call per
``(loop, iterations)`` segment.  It runs the compiled body when one
exists, falls back to ``shim.run_chunk`` on a missing entry or a
:class:`Bailout` (a binding the frame does not carry, raised before any
side effect), and under ``VERIFY_COMPILED`` runs *both* — the one body the
loop has, then the interpreter from the same state — and diffs their
storage images, outputs, and step counts in-process, keeping the
interpreted run's effects (the interpreter is the authority).
"""

import re

from repro.util.errors import EmulationError


class Bailout(Exception):
    """The compiled entry section failed; re-run the chunk interpreted.

    Raised only before the chunk's first side effect (all entry
    bindings — induction storage, live-in registers, arguments,
    globals — happen up front), so the interpreter fallback replays the
    chunk from an untouched state and raises whatever the chunk really
    raises, where it raises it.
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

    ``layout`` (``seq._Scope.layout``) names what each position of the
    key counts: ``key`` is one execution count per block, then one
    callee-step total per call site, then — for a loop that nests
    others — the tuple of child instance shapes; the layout's last part
    is the uids the iteration ran once without a counter (a counted
    loop's header and latch).  Runs once per distinct key; the
    per-iteration path is a dict hit on the key itself.
    """
    block_uids, call_uids, nested, implied = layout
    counts = dict.fromkeys(implied, 1)
    for executed, uids in zip(key, block_uids):
        if executed:
            counts.update(dict.fromkeys(uids, executed))
    for extra, uid in zip(key[len(block_uids):], call_uids):
        if extra:
            counts[uid] += extra
    return table.iteration(counts, key[-1] if nested else ())


def close_straight(table, header_totals, header_name, full, last, trips):
    """Intern one activation of a loop recorded whole: ``trips`` full
    iterations of shape ``full``, then its last header test, ``last``
    (:func:`~repro.emulator.profile.close_instance`)."""
    multiplicity = {full: trips, last: 1} if trips else {last: 1}
    return close_instance(table, header_totals, header_name, multiplicity)


_REGISTER_LOCAL = re.compile(r"_[rp](\d+)(?:_[so])?$")


def unbound_register(error):
    """Map a generated-code ``UnboundLocalError`` to the interpreter's.

    Sequential-stretch bodies keep SSA registers as plain Python locals;
    a register whose defining block never executed is an *unbound local*
    where the interpreter's lazy frame raises ``use of unexecuted
    instruction %<uid>``.  Returns that :class:`EmulationError` for a
    ``_r<uid>`` local or a promoted scalar's ``_p<uid>`` (its alloca's
    register), or the original error for anything else (a codegen bug
    should stay loud and recognizable).
    """
    name = getattr(error, "name", None)
    if not name:
        found = re.search(r"'(_[rp]\d+(?:_[so])?)'", str(error))
        name = found.group(1) if found else ""
    match = _REGISTER_LOCAL.match(name or "")
    if match is None:
        return error
    return EmulationError(
        f"use of unexecuted instruction %{match.group(1)}"
    )


# -- chunk execution -----------------------------------------------------------


def execute_chunk(entry, shim, loop, frame, iterations, locks,
                  verify=None):
    """Run one chunk; returns ``"compiled"`` or ``"interpreted"``.

    ``entry`` is a :class:`~repro.codegen.lower.CompiledChunk` (or
    ``None`` for a loop the lowering refused); ``shim`` is the backend's
    ``_WorkerInterpreter``.  ``verify`` is ``None`` or, the oracle armed,
    every storage the chunk can reach (the backend holds them: the walk
    its payload codec ships); :func:`_differential` then runs this same
    ``entry`` against them.
    """
    if entry is not None:
        if verify is not None:
            mode, _value = _differential(
                entry, shim, "chunk",
                lambda: entry.fn(shim, frame, iterations, locks),
                lambda: shim.run_chunk(loop, frame, iterations, locks),
                verify, objects=frame.objects,
            )
            return mode
        try:
            entry.fn(shim, frame, iterations, locks)
            return "compiled"
        except Bailout:
            pass
    shim.run_chunk(loop, frame, iterations, locks)
    return "interpreted"


# Images of the one body, not a log-marking twin.  Through PR 23 every
# loop was lowered twice — the second body's stores also marked a write
# log, the oracle rolled *that* body back by its marks, and no unarmed
# run executed it.  A store corrupted in the shipping body only
# (``value + 1`` on its first store) passed the armed run on LU ``-O2``
# on both backends, 12 chunks "verified"; run on the body that ships it
# is a divergence at the first chunk.  Copying every reachable storage
# per chunk also costs less than the marks did: the armed CI leg (296
# cells) reads 54.1 / 56.4 s against 67.4 / 70.2 s.
#
# Nothing else may write the storages between a chunk's two runs, so an
# armed ``threads`` region runs its workers in turn
# (``ThreadsBackend.run_region``).  Running each worker's pair on a
# private copy instead needs a frame cloner larger than the twin this
# replaced, and the unarmed conformance leg is what runs the same
# bodies concurrently.


def _differential(entry, state, noun, run_compiled, run_interpreted,
                  storages, objects=(), compare_values=False):
    """The ``VERIFY_COMPILED`` oracle; returns ``(mode, interpreted value)``.

    ``storages`` is every storage list the two thunks can reach and
    ``objects`` the chunk's ``frame.objects`` (none for a function body:
    each run builds its own frame).  The storages are copied, the
    compiled thunk executes, its image is captured (every slot, the
    allocas it first executed into ``objects``, the output slice and
    step delta on ``state`` — the shim or the parent interpreter — and
    the return value), the copies are put back and those fresh allocas
    dropped.  The interpreted thunk then executes from the identical
    pre-run state and its effects *stay* — so a divergence aborts with
    the authoritative state in place.  A :class:`Bailout` is not a
    divergence (the frame lacks a live-in the compiled entry binds
    eagerly): plain interpreter fallback.  ``compare_values`` adds the
    two thunks' return values to the diff.

    The blind spot, shared with ``payload.diff_table``: a store that
    rewrites a slot's own value leaves no trace in an image
    (``tests/support/recording.py`` pins those, slot by slot).
    """
    before = [list(storage) for storage in storages]
    known = set(objects)
    out_mark = len(state.output)
    step_mark = state.steps

    def image():
        fresh = {
            alloca.uid: list(objects[alloca])
            for alloca in objects if alloca not in known
        }
        return ([list(storage) for storage in storages], fresh,
                state.output[out_mark:], state.steps - step_mark)

    bailed = False
    compiled_error = None
    compiled_value = None
    try:
        compiled_value = run_compiled()
    except Bailout:
        bailed = True
    except Exception as error:
        compiled_error = error
    c_slots, c_fresh, c_output, c_steps = image()
    for storage, values in zip(storages, before):
        storage[:] = values  # undo the compiled run's writes
    for alloca in set(objects) - known:
        del objects[alloca]
    del state.output[out_mark:]
    state.steps = step_mark

    if bailed:
        return "interpreted", run_interpreted()

    try:
        interp_value = run_interpreted()
    except Exception as error:
        if compiled_error is None:
            raise EmulationError(
                f"VERIFY_COMPILED divergence at {entry.label}: compiled "
                f"{noun} succeeded but the interpreter raised "
                f"{type(error).__name__}: {error}"
            ) from error
        raise  # both paths failed: the interpreted error is authoritative
    i_slots, i_fresh, i_output, i_steps = image()

    if compiled_error is not None:
        raise EmulationError(
            f"VERIFY_COMPILED divergence at {entry.label}: compiled {noun} "
            f"raised {type(compiled_error).__name__}: {compiled_error} "
            f"but the interpreter succeeded"
        ) from compiled_error
    problems = []
    if c_slots != i_slots:
        changed = [
            (index, slot)
            for index, pair in enumerate(zip(c_slots, i_slots))
            for slot, (a, b) in enumerate(zip(*pair))
            if a is not b and a != b
        ]
        problems.append(
            f"storage images differ ((storage, slot)={changed[:8]!r}"
            f"{' ...' if len(changed) > 8 else ''})"
        )
    if c_fresh != i_fresh:
        problems.append(
            f"fresh allocas differ (compiled={c_fresh!r} "
            f"interpreted={i_fresh!r})"
        )
    if c_output != i_output:
        problems.append(
            f"outputs differ (compiled={c_output!r} "
            f"interpreted={i_output!r})"
        )
    if c_steps != i_steps:
        problems.append(
            f"step counts differ (compiled={c_steps} "
            f"interpreted={i_steps})"
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
    authority.  ``verify`` is only for a function with no region stops
    (a region dispatch is not replayable).
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

    The function-level use of :func:`_differential`: the return value
    joins the diff.  Only called for functions whose call graph reaches
    no parallel region: a region dispatch is not replayable.

    The images cover the *observable* storages — globals and pointer
    arguments.  Each run builds its own frame, so its function-local
    allocas are fresh objects, unreachable once the call returns (the
    IR has no channel for a pointer to escape except the return value,
    which is compared directly).
    """
    from repro.emulator.interp import _Frame

    observable = {
        id(storage): storage
        for storage in interp._global_storage.values()
    }
    for value in args:
        if type(value) is tuple and len(value) == 2:
            observable[id(value[0])] = value[0]
    return _differential(
        entry, interp, "body",
        lambda: entry.fn(interp, _Frame(function, args)),
        lambda: interpret(function, args),
        list(observable.values()), compare_values=True,
    )
