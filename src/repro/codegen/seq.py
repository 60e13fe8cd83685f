"""Lower a function's *sequential stretches* to one exec-compiled body.

Where :mod:`repro.codegen.lower` compiles the body of a DOALL chunk,
this module compiles everything *around* the parallel regions, through
the same structured walk with the function as its outermost region:
nested loops and ``if``/``else`` diamonds with the exact semantics of
``Interpreter._run_function`` — one step per
executed instruction against ``max_steps`` (with the interpreter's own
error message), the interpreter's lazy "use of unexecuted instruction"
error for registers whose defining block never ran (mapped from
Python's ``UnboundLocalError``), and ``return`` lowering to a real
return, also from inside loops: an arm that leaves its loops for good
is emitted under its ``if`` and ends in the ``return``.

The chunk tier applies as it is: a scalar alloca no region can see is
promoted to a local for the whole function, so a loop over one is
``for v in range(v, hi)`` and gets the array tier's preheader.  Promoted
scalars are written back to their slots before every stop and in a
``finally``, so ``frame.objects`` is the interpreter's image wherever a
region or the caller reads it.  With no ``Bailout`` after the first side
effect, a ``gep`` drops its guard only where the proof holds when the
body is lowered: its index is in bounds over the box of constant
intervals — the counted inductions', narrowed inside an ``if`` arm by
the arm's condition — the rule a chunk keeps inside its arms.  An
alloca that runs in a loop but keeps its slot is looked up once per
activation.

A planned parallel region is a *stop*: one statement where its loop
node would be.  Reaching the region's header closes the open step
segment, exactly as a ``call`` does, and then

1. syncs the step counter into the interpreter,
2. flushes the registers the region dispatcher reads from the parent
   frame (canonical bounds plus the loops' lowered live-in registers)
   into ``frame.registers`` — unbound registers stay absent, exactly
   like the interpreter's lazy frame,
3. calls ``interp._compiled_region_stop(header, frame)`` with the
   header block bound as a ref (the
   :class:`~repro.runtime.executor.ParallelInterpreter` hook mirroring
   ``_maybe_run_parallel_loop``), and
4. resumes at the region's statically-known canonical exit block.

Entry bindings (arguments, globals) are eager and raise
:class:`~repro.codegen.runtime.Bailout` before any side effect, so the
interpreter fallback replays the call from an untouched state.  Anything
outside the supported matrix — an instruction the lowering has no
statement for, a CFG the walk refuses (irreducible, a loop left by a
jump, control entering a region mid-loop: hand-written IR only) —
raises :class:`Unsupported` naming the block and the function stays
interpreted — never fail, always fall back.

The same lowering has a *profiled* form (:class:`_ProfiledLowering`,
:func:`compile_profiled`): no stops, everything else as above, one
counter per block a loop iteration may or may not run, and the loop
events at their three fixed positions on the loop tree — *enter* before
the Python loop, *iterate* at the bottom of its body, *exit* behind it
(and "leave *k* loops" where an arm returns) — so that running the body
produces the function's dynamic loop-nest profile, already interned into
shapes (:mod:`repro.emulator.profile`).  A counted loop's header and
latch need no counter, and one whose body is a straight segment with no
call is recorded once per instance.  :mod:`repro.codegen.profile` runs
it.
"""

import dataclasses

from repro.analysis.dominators import compute_dominator_tree
from repro.analysis.liveness import live_in_registers
from repro.ir import instructions as insts
from repro.ir.types import PointerType
from repro.codegen.lower import _RETURNED, Unsupported, _Emitter, \
    _Lowering, _refused, _exec_factory


@dataclasses.dataclass
class CompiledSequence:
    """One exec-compiled function body.

    ``fn(interp, frame)`` has ``Interpreter._run_function`` semantics
    for a fresh frame: it returns the function's return value, counts
    steps, and dispatches planned regions through the interpreter's
    ``_compiled_region_stop`` hook.
    """

    fn: object
    source: str
    function: str  # IR function name
    stops: tuple  # ((header, (member header, ...)), ...) lowered against

    @property
    def label(self):
        return f"@{self.function}"


def sequence_stops(regions, function):
    """The region-stop spec for ``function``, in block order.

    ``regions`` maps header block -> prepared record (the
    interpreter's dispatch table, bound by its caller); only *this*
    function's blocks can be in it.  The spec is names only, and it is
    part of the codegen cache key.
    """
    return tuple(
        (block.name, regions[block].headers)
        for block in function.blocks
        if block in regions
    )


@dataclasses.dataclass
class _Stop:
    """One resolved region stop: member loops and where control resumes."""

    loops: list
    exit: object  # the last member's canonical exit block


class _SequenceLowering(_Lowering):
    """Lowers one function's sequential stretches.

    The chunk lowering's walk, operand rendering and per-instruction
    statements with the function as the outermost region; fills the
    walk's seams (region stops, real returns — also from inside loops)
    and overrides the step-check message and the register protocol
    (plain locals instead of live-ins).
    """

    loop = None  # no chunk loop: no induction is seeded
    _inductions = ()
    _conjoins = False  # no ``Bailout`` once a side effect ran
    name = "_seq"
    parameters = "interp, frame"
    _body_indent = 3  # def _factory / def _seq / try
    _blocks = 1  # the skeleton's own ``try``

    def __init__(self, function, stops, loops_by_header, dominators=None):
        self._begin(function, loops_by_header.values(), dominators)
        self._stops = self._resolve_stops(stops, loops_by_header)
        #: ``(line index, indent, stop)`` per stop, in walk order: the
        #: flush lines go in once the walk knows everything it lowered.
        self._flushes = []

    # -- stop resolution -----------------------------------------------------

    def _resolve_stops(self, stops, loops_by_header):
        resolved = {}
        for header, members in stops:
            loops = []
            for member in members:
                loop = loops_by_header.get(member)
                if loop is None or loop.canonical is None:
                    # The interpreter would raise PlanError here; stay
                    # on the interpreter so it can.
                    raise Unsupported(
                        f"region member {member} lacks canonical form"
                    )
                loops.append(loop)
            exit_block = self.function.block(loops[-1].canonical.exit)
            resolved[header] = _Stop(loops, exit_block)
        return resolved

    def _flush_set(self, stop, defined):
        """Lowered instructions the region dispatch reads from the frame.

        The dispatcher evaluates each member loop's canonical bounds via
        ``frame.registers`` and copies only the loops' live-in registers
        (:func:`~repro.analysis.liveness.live_in_registers`) into the
        worker frames, so each of those the walk defined is flushed
        before the stop.
        """
        candidates = list(live_in_registers(stop.loops))
        for loop in stop.loops:
            canonical = loop.canonical
            candidates.extend(
                (canonical.lower, canonical.upper, canonical.step)
            )
        flush = {
            id(value): value for value in candidates
            if isinstance(value, insts.Instruction) and id(value) in defined
        }
        return sorted(flush.values(), key=lambda inst: inst.uid)

    # -- overrides of the chunk lowering -------------------------------------

    def _promote(self):
        """The chunk's promotion over the function, less every scalar a
        region can see: one its loops allocate or use (which covers
        their live-in registers).  The scan takes in the stops' blocks:
        a value a region reads is never used once, fused or aliased.

        An alloca that runs in a loop but keeps its slot gets a storage
        local, looked up once per activation."""
        self.blocks = self.function.blocks
        self.defined = {
            id(inst) for block in self.blocks for inst in block.instructions
        }
        self._alias = {}
        super()._promote()
        stopped = {
            block for stop in self._stops.values()
            for loop in stop.loops for block in loop.blocks
        }
        shared = {
            id(value) for block in stopped for inst in block.instructions
            for value in (inst, *inst.operands)
        }
        self.promoted = {
            key: scalar for key, scalar in self.promoted.items()
            if key not in shared
        }
        self._cached = {
            id(inst): f"_s{inst.uid}"
            for block in self.blocks
            if block in self._innermost and block not in stopped
            for inst in block.instructions
            if isinstance(inst, insts.Alloca) and id(inst) not in self.promoted
        }

    def _register(self, inst):
        # No live-in protocol: every register the function reads is
        # either defined in a lowered block (a plain local, or the local
        # it aliases) or left unbound so UnboundLocalError maps to the
        # interpreter's lazy "use of unexecuted instruction" error.
        alias = self._alias and self._alias.get(id(inst))
        if alias:
            return alias
        if isinstance(inst.type, PointerType):
            return f"_r{inst.uid}_s", f"_r{inst.uid}_o"
        return f"_r{inst.uid}"

    #: The interpreter's ``max_steps`` message, as the check spells it.
    _overrun = 'f"exceeded max_steps={_max}; infinite loop?"'

    def _step_check(self, out, count):
        out.emit(f"_steps += {count}")
        out.emit("if _steps > _max:")
        out.indent += 1
        out.emit(f"raise _EmulationError({self._overrun})")
        out.indent -= 1

    def lower_terminator(self, out, inst):
        out.emit("interp.steps = _steps")
        value = self.any_value(inst.value) if inst.operands else "None"
        out.emit(f"return {value}")

    # -- the walk's seams -------------------------------------------------------

    def _emit_loop(self, out, inner):
        """A planned region's loop is one statement: the stop."""
        stop = self._stops.get(inner.header.name)
        if stop is None:
            return super()._emit_loop(out, inner)
        self._nest(out, inner.header, 2)  # a flush's ``try`` and handler
        self._emitted[inner.header] = self._leaving
        # The segment that reached the header is closed here, as at a
        # call: the dispatch counts on from exactly ``interp.steps``.
        out.emit("interp.steps = _steps")
        # The region's payload images ``frame.objects`` whole.
        self._write_back(out, self.promoted.values())
        self._flushes.append((len(out.lines), out.indent, stop))
        out.emit(
            f"interp._compiled_region_stop({self.ref(inner.header)}, frame)"
        )
        out.emit("_steps = interp.steps")
        self._segment = None
        return stop.exit

    def _emit_tail(self, out, target, region):
        """An arm that leaves ``region`` from inside its body: a tail
        that ends in ``return`` on every path, emitted under its ``if``.
        Walked as the function's own statements, so one that comes back
        — into the nest, or to the code behind it (a ``break``) — meets
        the walk's refusals."""
        self._leave(out, region)
        leaving, self._leaving = self._leaving, region
        self._walk(out, target, _RETURNED, None)
        self._leaving = leaving

    def _lower_body(self, out):
        entry = self.function.entry
        if entry.name in self._stops:
            # No transition leads here, so the interpreter never takes
            # the region over on the way in.
            raise _refused(entry, "entry block belongs to a planned region")
        self._promote()
        self._walk(out, entry, _RETURNED, None)
        # What a stop flushes is what the whole walk lowered — values
        # bound behind it too, a loop around it brings them back.
        defined = {
            id(inst)
            for block in self._emitted if block.name not in self._stops
            for inst in block.instructions
        }
        for index, indent, stop in reversed(self._flushes):  # indices hold
            flush = _Emitter()
            flush.indent = indent
            for inst in self._flush_set(stop, defined):
                self._emit_flush(flush, inst)
            out.lines[index:index] = flush.lines

    def _emit_flush(self, out, inst):
        key = self.ref(inst)
        value = self._register(inst)
        if isinstance(value, tuple):
            value = f"({value[0]}, {value[1]})"
        out.emit("try:")
        out.indent += 1
        out.emit(f"frame.registers[{key}] = {value}")
        out.indent -= 1
        out.emit("except UnboundLocalError:")
        out.indent += 1
        out.emit("pass")
        out.indent -= 1

    # -- whole-body assembly ---------------------------------------------------

    def _factory_bindings(self, out):
        out.emit("_unbound = H.unbound_register")

    def _emit_body(self, out, body):
        for storage in [*self._cached.values()] + [
            scalar.storage for scalar in self.promoted.values()
        ]:
            out.emit(f"{storage} = None")
        out.emit("try:")
        out.lines.extend(body.lines)
        out.emit("except UnboundLocalError as _exc:")
        out.indent += 1
        out.emit("raise _unbound(_exc) from None")
        out.indent -= 1
        if self.promoted:
            out.emit("finally:")
            out.indent += 1
            self._write_back(out, self.promoted.values())
            out.indent -= 1


@dataclasses.dataclass(frozen=True)
class _Scope:
    """What one loop (or the root pseudo-iteration) counts per iteration."""

    name: object  # suffix of the scope's generated locals
    blocks: frozenset  # the blocks that bump a counter, ``_n<number>``
    counters: list  # ``_n<block number>`` per such block, ``_x<uid>`` per call
    nested: bool  # iterations can hold child loop instances
    key: str  # the tuple expression an iteration is interned under
    #: The ref of what :func:`~repro.codegen.runtime.expand_iteration`
    #: reads a key against: uids per counted block, uid per call extra,
    #: ``nested``, and the uids a full iteration runs once without a
    #: counter.  A ref, not a literal: ``compile`` would fold each one.
    layout: str
    #: A counted loop's layout (ref) of its last header test, and of an
    #: iteration an arm cuts short to ``return`` (the header ran, the
    #: latch did not); ``None`` where there is none.
    last: str = None
    cut: str = None
    #: The induction local of a loop recorded once per instance.
    induction: str = None


class _ProfiledLowering(_SequenceLowering):
    """The walk, instrumented to produce the loop-nest profile.

    The sequence tier as it is — promoted scalars, counted ``for``
    loops, aliased and folded geps, guards dropped where proven, the
    array tier — with the loop events compiled in at their fixed
    positions on the loop tree: *enter* before the Python loop,
    *iterate* at the bottom of its body, *exit* behind it, and every
    enclosing loop's exit where an arm leaves them to ``return`` (the
    interpreter rediscovers them per transition in ``_track_loops``).

    A counter belongs to its block's innermost loop; the blocks outside
    every loop are the root pseudo-iteration, closed once at ``return``.
    Each block bumps its counter and each call site accumulates its
    callee's steps; an iteration *ends* by interning ``(block counters,
    call extras, child instance shapes)`` — a per-loop dict lookup,
    expanded to per-uid counts only on a miss
    (:func:`repro.codegen.runtime.expand_iteration`) — into its loop
    instance's multiset and zeroing the counters, and an instance ends
    by interning that multiset into the enclosing iteration's children
    (:func:`repro.emulator.profile.close_instance`).

    A counted loop's header and elided latch bump no counter: they run
    once per full iteration, so its layout implies them, and its last
    header test is a constant *exit shape*.  So do the blocks of its own
    body on every path to the latch, unless an arm can leave it to
    ``return`` partway.  A counted loop whose every block is so implied,
    with no call and no nested loop — a body of one straight segment —
    has one *full shape* and counts nothing per iteration (a sliced one
    has no per-iteration body at all): its exit records the instance
    whole, ``{full shape: trip, exit shape: 1}``
    (:func:`repro.codegen.runtime.close_straight`).  Those constant
    shapes are interned once per run, as is the ``max_steps`` message.

    ``fn(interp, frame, table)`` returns ``(return value, root
    IterationShape, header totals)``.
    """

    parameters = "interp, frame, _table"
    _overrun = "_overrun"

    def __init__(self, function, loops, dominators=None):
        self._dominators = dominators or compute_dominator_tree(function)
        super().__init__(
            function, (), {loop.header.name: loop for loop in loops},
            self._dominators,
        )
        self._number = {}
        #: Loop (``None``: the root) -> the blocks it is innermost to.
        self._members = {}
        for index, block in enumerate(function.blocks):
            self._number[block] = index
            self._members.setdefault(
                self._innermost.get(block), []
            ).append(block)
        self._nests = {loop.parent for loop in loops}
        #: The loops an arm can leave to ``return``: those around a
        #: ``return`` or around an edge out of them not at their header.
        self._left = set()
        for block in function.blocks:
            targets = block.successors()
            returns = isinstance(block.terminator, insts.Return)
            loop = self._innermost.get(block)
            while loop is not None:
                if block is not loop.header and (returns or not all(
                    [target in loop.blocks for target in targets]
                )):
                    self._left.add(loop)
                loop = loop.parent
        #: The root pseudo-iteration's :class:`_Scope` under ``None``,
        #: then one per loop, in the order the walk enters them.
        self._scopes = {None: self._describe_scope(None, "R")}
        self._refuse_unprofilable()

    def _describe_scope(self, loop, name, scalar=None):
        """``loop``'s scope (``None``: the root's); ``scalar`` is a
        counted loop's induction."""
        members = self._members.get(loop, [])
        calls = [
            inst.uid
            for block in members for inst in block.instructions
            if isinstance(inst, insts.Call)
        ]
        implied = self._once(loop) if scalar else set()
        counted = [block for block in members if block not in implied]
        counters = [f"_n{self._number[block]}" for block in counted] + [
            f"_x{uid}" for uid in calls
        ]
        nested = loop in self._nests
        parts = counters + [f"tuple(_c{name})"] * nested
        whole = not parts

        def layout(once, blocks=counted):
            return self.ref((
                tuple([
                    tuple([inst.uid for inst in block.instructions])
                    for block in blocks
                ]),
                tuple(calls) if blocks is counted else (),
                nested and blocks is counted,
                tuple([
                    inst.uid for block in members if block in once
                    for inst in block.instructions
                ]),
            ))

        return _Scope(
            name=name,
            blocks=frozenset(counted),
            counters=counters,
            nested=nested,
            key=f"({', '.join(parts)},)" if parts else "()",
            layout=layout(implied),
            last=layout({loop.header}, ()) if scalar else None,
            cut=layout({loop.header})
            if scalar and loop in self._left else None,
            induction=scalar.value if scalar and whole else None,
        )

    def _once(self, loop):
        """The blocks of counted ``loop`` that run once in every full
        iteration: its header, its latch and, unless an arm can leave
        the loop to ``return`` (an iteration cut short runs part of
        them), the blocks of its own body that dominate the latch."""
        latch = loop.latches[0]
        once = {loop.header, latch}
        if loop not in self._left:
            idom = self._dominators.idom
            block = idom[latch]
            while block is not loop.header:
                once.add(block)  # a nested loop's block is not a member
                block = idom[block]
        return once

    def _refuse_unprofilable(self):
        entry = self.function.entry
        if entry in self._headers:
            # The interpreter sees no transition *into* the entry block,
            # so its first activation is recorded at the first back edge.
            raise Unsupported(f"entry block {entry.name} is a loop header")
        seen = set()
        stack = [self.function]
        while stack:
            for inst in stack.pop().instructions():
                if isinstance(inst, insts.Call):
                    if inst.callee is self.function:
                        raise Unsupported(
                            f"@{self.function.name} can reach itself "
                            f"through the call graph"
                        )
                    if inst.callee.name not in seen:
                        seen.add(inst.callee.name)
                        stack.append(inst.callee)

    # -- instrumentation ----------------------------------------------------------

    def _lower_block(self, out, block):
        if block in self._scopes[self._innermost.get(block)].blocks:
            out.emit(f"_n{self._number[block]} += 1")
        return super()._lower_block(out, block)

    def lower_instruction(self, out, inst):
        if not isinstance(inst, insts.Call):
            return super().lower_instruction(out, inst)
        # The callee's steps land on the call's uid.
        out.emit(f"_x{inst.uid} -= _steps")
        super().lower_instruction(out, inst)
        out.emit(f"_x{inst.uid} += _steps")

    def _enter_loop(self, out, loop, scalar):
        scope = self._scopes[loop] = self._describe_scope(
            loop, len(self._scopes) - 1, scalar
        )
        if scope.induction:
            out.emit(f"_b{scope.name} = {scope.induction}")
        else:
            out.emit(f"_m{scope.name} = {{}}")

    def _close_iteration(self, out, loop):
        scope = self._scopes[loop]
        if scope.induction:
            return  # its exit records the instance whole
        name = scope.name
        out.emit(f"_k = {scope.key}")
        out.emit(f"_s = _t{name}.get(_k)")
        out.emit("if _s is None:")
        out.indent += 1
        out.emit(f"_s = _t{name}[_k] = _expand(_table, {scope.layout}, _k)")
        out.indent -= 1
        out.emit(f"_m{name}[_s] = _m{name}.get(_s, 0) + 1")
        if scope.counters:
            out.emit(" = ".join(scope.counters + ["0"]))
        if scope.nested:
            out.emit(f"_c{name} = []")

    def _exit_loop(self, out, loop, returning=False):
        scope = self._scopes[loop]
        name, parent = scope.name, f"_c{self._scopes[loop.parent].name}"
        if scope.induction:
            out.emit(
                f"{parent}.append(_close_straight(_table, _totals, "
                f"{loop.header.name!r}, _F{name}, _X{name}, "
                f"{scope.induction} - _b{name}))"
            )
            return
        if scope.last is None:  # a ``while``: its iteration runs on
            self._close_iteration(out, loop)
        # The last iteration's shape holds the header and not the latch,
        # so it is new to the multiset.
        elif returning:  # cut short by an arm
            out.emit(
                f"_m{name}[_expand(_table, {scope.cut}, {scope.key})] = 1"
            )
        else:
            out.emit(f"_m{name}[_X{name}] = 1")
        out.emit(
            f"{parent}.append(_close_instance("
            f"_table, _totals, {loop.header.name!r}, _m{name}))"
        )

    def lower_terminator(self, out, inst):
        root = self._scopes[None]
        out.emit(f"_root = _expand(_table, {root.layout}, {root.key})")
        out.emit("interp.steps = _steps")
        value = self.any_value(inst.value) if inst.operands else "None"
        out.emit(f"return {value}, _root, _totals")

    def _factory_bindings(self, out):
        super()._factory_bindings(out)
        out.emit("_expand = H.expand_iteration")
        out.emit("_close_instance = H.close_instance")
        out.emit("_close_straight = H.close_straight")

    def _prologue(self, out):
        out.emit("_totals = {}")
        out.emit(f"_overrun = {super()._overrun}")
        for loop, scope in self._scopes.items():
            name = scope.name
            if scope.counters:
                out.emit(" = ".join(scope.counters + ["0"]))
            if scope.nested:
                out.emit(f"_c{name} = []")
            if scope.induction:
                out.emit(f"_F{name} = _expand(_table, {scope.layout}, ())")
            elif loop is not None:
                out.emit(f"_t{name} = {{}}")
            if scope.last:
                out.emit(f"_X{name} = _expand(_table, {scope.last}, ())")


def lower_sequence(function, stops, loops_by_header):
    """Generate (source, refs) for one function; raises Unsupported.

    ``loops_by_header`` (header name -> the function's natural loop) is
    the forest the walk follows and the stops are resolved against; the
    caller holds it (the analysis record's, or the executor's).
    """
    lowering = _SequenceLowering(function, tuple(stops), loops_by_header)
    return lowering.lower(), lowering.refs


def compile_sequence(function, stops, loops_by_header):
    """Lower and ``exec``-compile one function's sequential stretches."""
    source, refs = lower_sequence(function, stops, loops_by_header)
    return _compiled(source, refs, function, stops)


def compile_profiled(function, loops, dominators=None):
    """Lower and ``exec``-compile ``function`` instrumented to profile.

    ``loops`` are the function's natural loops and ``dominators``, when
    the caller holds it, its dominator tree (the analysis record's).
    Not cached: a session profiles once.  Raises :class:`Unsupported`
    for what the lowering refuses — anything the plain lowering does,
    plus a function that can reach itself through calls and an entry
    block that is a loop header.
    """
    lowering = _ProfiledLowering(function, loops, dominators)
    return _compiled(lowering.lower(), lowering.refs, function, ())


def _compiled(source, refs, function, stops):
    return CompiledSequence(
        fn=_exec_factory(source, refs, f"@{function.name}"),
        source=source,
        function=function.name,
        stops=tuple(stops),
    )
