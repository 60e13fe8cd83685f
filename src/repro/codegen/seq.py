"""Lower a function's *sequential stretches* to one exec-compiled body.

Where :mod:`repro.codegen.lower` compiles the body of a DOALL chunk,
this module compiles everything *around* the parallel regions: the
whole function lowers to a block-index state machine with the exact
semantics of ``Interpreter._run_function`` — one step per executed
instruction against ``max_steps`` (with the interpreter's own error
message), the interpreter's lazy "use of unexecuted instruction" error
for registers whose defining block never ran (mapped from Python's
``UnboundLocalError``), and ``return`` lowering to a real return.

Planned parallel regions are *stops*: their member loop blocks are
excluded from the lowering, and every transfer into a region's header
becomes a pseudo-state that

1. syncs the step counter into the interpreter,
2. flushes the registers the region dispatcher reads from the parent
   frame (canonical bounds plus every lowered value the loop body uses)
   into ``frame.registers`` — unbound registers stay absent, exactly
   like the interpreter's lazy frame,
3. calls ``interp._compiled_region_stop(header, frame)`` (the
   :class:`~repro.runtime.executor.ParallelInterpreter` hook mirroring
   ``_maybe_run_parallel_loop``), and
4. resumes at the region's statically-known canonical exit block.

Entry bindings (arguments, globals) are eager and raise
:class:`~repro.codegen.runtime.Bailout` before any side effect, so the
interpreter fallback replays the call from an untouched state.  Anything
outside the supported matrix raises :class:`Unsupported` and the
function stays interpreted — never fail, always fall back.

The same state machine has a *profiled* lowering
(:class:`_ProfiledLowering`, :func:`compile_profiled`): no stops, and
every block and CFG edge instrumented so that running the body produces
the function's dynamic loop-nest profile, already interned into shapes
(:mod:`repro.emulator.profile`).  :mod:`repro.codegen.profile` runs it.
"""

import dataclasses

from repro.analysis.loops import loop_of_block
from repro.ir import instructions as insts
from repro.ir.types import PointerType
from repro.codegen import runtime as _runtime
from repro.codegen.lower import _UNOP_HELPERS, Unsupported, _Emitter, \
    _Lowering


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
    logged: bool  # stores mark the interpreter's write log
    module_key: str = None
    refs: tuple = ()

    @property
    def label(self):
        return f"@{self.function}"


def sequence_stops(regions, function):
    """The region-stop spec for ``function``, in block order.

    ``regions`` maps header block name -> region parallelization (the
    interpreter's dispatch table); only headers that name a block of
    *this* function become stops.  The spec is pure content (names
    only), so it keys the codegen source cache.
    """
    stops = []
    for block in function.blocks:
        region = regions.get(block.name)
        if region is not None:
            # An interchanged nest is keyed (and resumed) at its outer
            # loop, whose block set contains the inner members — the
            # outer header is the stop's sole member so the exit,
            # excluded blocks, and flush set all resolve against it.
            if getattr(region, "outer_header", None):
                members = (region.outer_header,)
            else:
                members = tuple(
                    recipe.header for recipe in region.recipes
                )
            stops.append((block.name, members))
    return tuple(stops)


class _Stop:
    """One resolved region stop: member loops, exit block, flush set."""

    __slots__ = ("header", "block", "loops", "exit", "flush", "state",
                 "used")

    def __init__(self, header, block, loops, exit_block):
        self.header = header
        self.block = block
        self.loops = loops
        self.exit = exit_block
        self.flush = ()
        self.state = None
        self.used = False


class _SequenceLowering(_Lowering):
    """Lowers one function's sequential stretches to a state machine.

    Reuses the chunk lowering's operand rendering and per-instruction
    statements; overrides control flow (whole-function state machine,
    region stops, real returns), the step-check message, and the entry
    bindings (arguments and globals instead of live-in registers).
    """

    signature = "def _seq(interp, frame):"

    def __init__(self, function, stops, logged, loops_by_header=None):
        # Deliberately not calling _Lowering.__init__: there is no loop.
        self.loop = None
        self.logged = bool(logged)
        self.function = function
        self.refs = []
        self._ref_names = {}
        self.live_ins = {}
        self.args = {}
        self.globals = {}
        self.counter = 0
        self._stops = self._resolve_stops(stops, loops_by_header)
        self._excluded = {
            id(block)
            for stop in self._stops.values()
            for loop in stop.loops
            for block in loop.blocks
        }
        self.blocks = self._reachable_blocks()
        self.defined = {
            id(inst) for b in self.blocks for inst in b.instructions
        }
        for stop in self._stops.values():
            if stop.used:
                stop.flush = self._flush_set(stop)

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
            block = self.function.block(header)
            exit_block = self.function.block(loops[-1].canonical.exit)
            resolved[header] = _Stop(header, block, loops, exit_block)
        return resolved

    def _reachable_blocks(self):
        """Lowered blocks reachable from entry, region loops projected out.

        Traversal continues at a stop's canonical exit instead of
        entering its loop blocks, mirroring the interpreter's takeover.
        """
        entry = self.function.entry
        if id(entry) in self._excluded:
            raise Unsupported("entry block belongs to a planned region")
        order = []
        seen = set()
        stack = [entry]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            if id(block) in self._excluded:
                raise Unsupported(
                    f"control enters planned region mid-loop "
                    f"({block.name})"
                )
            seen.add(id(block))
            order.append(block)
            terminator = (
                block.instructions[-1] if block.instructions else None
            )
            if not isinstance(terminator, insts.Terminator):
                continue  # refused at emission time
            for successor in reversed(terminator.successors()):
                stop = self._stops.get(successor.name)
                if stop is not None:
                    stop.used = True
                    stack.append(stop.exit)
                else:
                    stack.append(successor)
        reachable = {id(block) for block in order}
        return [b for b in self.function.blocks if id(b) in reachable]

    def _flush_set(self, stop):
        """Lowered instructions the region dispatch reads from the frame.

        The dispatcher evaluates each member loop's canonical bounds via
        ``frame.registers`` and copies the whole register file into the
        worker frames (chunk live-ins, pointer remaps), so every lowered
        value the loop consumes must be flushed before the stop.
        """
        candidates = []
        for loop in stop.loops:
            canonical = loop.canonical
            candidates.extend(
                (canonical.lower, canonical.upper, canonical.step)
            )
            for block in loop.blocks:
                for inst in block.instructions:
                    candidates.extend(inst.operands)
        flush = {}
        for value in candidates:
            if (
                isinstance(value, insts.Instruction)
                and id(value) in self.defined
            ):
                flush[id(value)] = value
        return tuple(
            sorted(flush.values(), key=lambda inst: inst.uid)
        )

    # -- overrides of the chunk lowering -------------------------------------

    def _register(self, inst):
        # No live-in protocol: every register the function reads is
        # either defined in a lowered block (a plain local) or left
        # unbound so UnboundLocalError maps to the interpreter's lazy
        # "use of unexecuted instruction" error.
        if isinstance(inst.type, PointerType):
            return f"_r{inst.uid}_s", f"_r{inst.uid}_o"
        return f"_r{inst.uid}"

    def _step_check(self, out, count):
        out.emit(f"_steps += {count}")
        out.emit("if _steps > _max:")
        out.indent += 1
        out.emit(
            "raise _EmulationError("
            "f\"exceeded max_steps={_max}; infinite loop?\")"
        )
        out.indent -= 1

    def _enter_block(self, out, index, block):
        self._step_check(out, len(block.instructions))

    def _goto(self, out, target, states):
        stop = self._stops.get(target.name)
        if stop is not None:
            out.emit(f"_b = {stop.state}")
            out.emit("continue")
        elif id(target) in states:
            out.emit(f"_b = {states[id(target)]}")
            out.emit("continue")
        else:
            raise Unsupported(
                f"branch into planned region body ({target.name})"
            )

    def lower_terminator(self, out, inst, states):
        if isinstance(inst, insts.Return):
            out.emit("interp.steps = _steps")
            if inst.operands:
                out.emit(f"return {self.any_value(inst.value)}")
            else:
                out.emit("return None")
        else:
            super().lower_terminator(out, inst, states)

    # -- the state machine ----------------------------------------------------

    def lower_body(self, out):
        states = {
            id(block): index for index, block in enumerate(self.blocks)
        }
        used_stops = [
            stop for stop in self._stops.values() if stop.used
        ]
        for offset, stop in enumerate(used_stops):
            stop.state = len(self.blocks) + offset
        out.emit(f"_b = {states[id(self.function.entry)]}")
        out.emit("while True:")
        out.indent += 1
        for index, block in enumerate(self.blocks):
            out.emit(f"{'if' if index == 0 else 'elif'} _b == {index}:")
            out.indent += 1
            if not block.instructions:
                raise Unsupported(f"empty block {block.name}")
            terminator = block.instructions[-1]
            if not isinstance(terminator, insts.Terminator):
                # Statically unreachable for verifier-passed modules;
                # refusing keeps the interpreter's fell-off-the-end
                # error exact.
                raise Unsupported(f"unterminated block {block.name}")
            self._enter_block(out, index, block)
            for inst in block.instructions[:-1]:
                if isinstance(inst, insts.Terminator):
                    raise Unsupported("terminator before end of block")
                self.lower_instruction(out, inst)
            self.lower_terminator(out, terminator, states)
            out.indent -= 1
        for stop in used_stops:
            out.emit(f"elif _b == {stop.state}:")
            out.indent += 1
            out.emit("interp.steps = _steps")
            self._emit_flush(out, stop)
            out.emit(
                f"interp._compiled_region_stop({stop.header!r}, frame)"
            )
            out.emit("_steps = interp.steps")
            out.emit(f"_b = {states[id(stop.exit)]}")
            out.indent -= 1
        out.indent -= 1

    def _emit_flush(self, out, stop):
        for inst in stop.flush:
            key = self.ref(inst)
            if isinstance(inst.type, PointerType):
                value = f"(_r{inst.uid}_s, _r{inst.uid}_o)"
            else:
                value = f"_r{inst.uid}"
            out.emit("try:")
            out.indent += 1
            out.emit(f"frame.registers[{key}] = {value}")
            out.indent -= 1
            out.emit("except UnboundLocalError:")
            out.indent += 1
            out.emit("pass")
            out.indent -= 1

    # -- whole-body assembly ---------------------------------------------------

    def _entry_bindings(self, out):
        for index in sorted(self.args):
            if self.args[index]:
                out.emit(
                    f"_a{index}_s, _a{index}_o = frame.args[{index}]"
                )
            else:
                out.emit(f"_a{index} = frame.args[{index}]")
        for name, local in self.globals.items():
            out.emit(f"{local} = frame.global_overlay.get({name!r})")
            out.emit(f"if {local} is None:")
            out.indent += 1
            out.emit(f"{local} = interp._global_storage[{name!r}]")
            out.indent -= 1
        if not out.lines:
            out.emit("pass")

    def _factory_bindings(self, out):
        """Extra names bound once per exec, outside ``_seq``."""

    def _prologue(self, out):
        """Extra locals initialized per call, before the entry bindings."""

    def lower(self):
        body = _Emitter()
        body.indent = 3  # def _factory / def _seq / try
        self.lower_body(body)
        entry = _Emitter()
        entry.indent = 3  # def _factory / def _seq / try
        self._entry_bindings(entry)

        out = _Emitter()
        out.emit("def _factory(refs, H):")
        out.indent += 1
        if self.refs:
            names = ", ".join(
                f"_k{index}" for index in range(len(self.refs))
            )
            trailer = "," if len(self.refs) == 1 else ""
            out.emit(f"({names}{trailer}) = refs")
        out.emit("_EmulationError = H.EmulationError")
        out.emit("_Bailout = H.Bailout")
        out.emit("_unbound = H.unbound_register")
        out.emit("_trunc_div = H.trunc_div")
        out.emit("_trunc_rem = H.trunc_rem")
        for helper in sorted(set(_UNOP_HELPERS.values())):
            out.emit(f"{helper} = H.{helper[1:]}")
        self._factory_bindings(out)
        out.emit(self.signature)
        out.indent += 1
        out.emit("_objs = frame.objects")
        out.emit("_out = interp.output")
        out.emit("_max = interp.max_steps")
        out.emit("_steps = interp.steps")
        if self.logged:
            out.emit("_log = interp.write_log")
        self._prologue(out)
        out.emit("try:")
        out.lines.extend(entry.lines)
        out.emit("except (KeyError, IndexError, TypeError, ValueError):")
        out.indent += 1
        out.emit("raise _Bailout() from None")
        out.indent -= 1
        out.emit("try:")
        out.lines.extend(body.lines)
        out.emit("except UnboundLocalError as _exc:")
        out.indent += 1
        out.emit("raise _unbound(_exc) from None")
        out.indent -= 1
        out.indent -= 1
        out.emit("return _seq")
        return out.source()


@dataclasses.dataclass(frozen=True)
class _Scope:
    """What one loop (or the root pseudo-iteration) counts per iteration."""

    name: object  # suffix of the scope's generated locals
    counters: list  # ``_n<block state>`` per own block, ``_x<uid>`` per call
    nested: bool  # iterations can hold child loop instances
    key: str  # the tuple expression an iteration is interned under
    #: What :func:`~repro.codegen.runtime.expand_iteration` reads a key
    #: against: uids per block counter, uid per call extra, ``nested``.
    layout: tuple


class _ProfiledLowering(_SequenceLowering):
    """The state machine, instrumented to produce the loop-nest profile.

    Which loop event a CFG edge triggers — leave *k* loops, then start
    the target loop's next iteration or enter it — is a static label of
    the edge given the natural-loop forest, so it is compiled into the
    edge (the interpreter rediscovers it per transition in
    ``_track_loops``).  Every block bumps one counter and every call
    site accumulates its callee's steps; an iteration *ends* by
    interning ``(block counters, call extras, child instance shapes)``
    — a per-loop dict lookup, expanded to per-uid counts only on a miss
    (:func:`repro.codegen.runtime.expand_iteration`) — into its loop
    instance's multiset and zeroing the counters, and an instance ends
    by interning that multiset into the enclosing iteration's children
    (:func:`repro.emulator.profile.close_instance`).  A counter belongs
    to its block's innermost loop; the blocks outside every loop are the
    root pseudo-iteration, closed once at ``return``.

    ``fn(interp, frame, table)`` returns ``(return value, root
    IterationShape, header totals)``.
    """

    signature = "def _seq(interp, frame, _table):"

    def __init__(self, function, loops):
        super().__init__(function, (), False)
        lowered = {id(block) for block in self.blocks}
        self._innermost = {
            id(block): loop_of_block(loops, block) for block in self.blocks
        }
        reachable = [loop for loop in loops if id(loop.header) in lowered]
        self._by_header = {id(loop.header): loop for loop in reachable}
        #: One :class:`_Scope` per loop (outermost first) and, under
        #: ``None``, the root pseudo-iteration.
        self._scopes = {
            loop: self._describe_scope(loop, name, reachable)
            for name, loop in [("R", None), *enumerate(reachable)]
        }
        self._block = None  # the block being lowered
        self._refuse_unprofilable()

    def _describe_scope(self, loop, name, loops):
        members = [
            (index, block) for index, block in enumerate(self.blocks)
            if self._innermost[id(block)] is loop
        ]
        calls = [
            inst.uid
            for _index, block in members for inst in block.instructions
            if isinstance(inst, insts.Call)
        ]
        counters = [f"_n{index}" for index, _block in members] + [
            f"_x{uid}" for uid in calls
        ]
        nested = any(other.parent is loop for other in loops)
        parts = counters + ([f"tuple(_c{name})"] if nested else [])
        return _Scope(
            name=name,
            counters=counters,
            nested=nested,
            key="(" + ", ".join(parts) + ",)",
            layout=(
                tuple(
                    tuple(inst.uid for inst in block.instructions)
                    for _index, block in members
                ),
                tuple(calls),
                nested,
            ),
        )

    def _refuse_unprofilable(self):
        entry = self.function.entry
        if self._innermost[id(entry)] is not None:
            # The interpreter sees no transition *into* the entry block,
            # so its first activation is recorded at the first back edge.
            raise Unsupported(f"entry block {entry.name} is a loop header")
        for block in self.blocks:
            for successor in block.successors():
                for loop in self._chain(successor):
                    if block not in loop.blocks and \
                            successor is not loop.header:
                        raise Unsupported(
                            f"loop block {successor.name} is reachable "
                            f"without passing its header"
                        )
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

    # -- the static loop forest -------------------------------------------------

    def _chain(self, block):
        """Loops containing ``block``, innermost first."""
        loop = self._innermost.get(id(block))
        while loop is not None:
            yield loop
            loop = loop.parent

    # -- instrumentation ----------------------------------------------------------

    def _enter_block(self, out, index, block):
        super()._enter_block(out, index, block)
        self._block = block
        out.emit(f"_n{index} += 1")

    def lower_instruction(self, out, inst):
        if not isinstance(inst, insts.Call):
            return super().lower_instruction(out, inst)
        # The callee's steps land on the call's uid.
        out.emit(f"_x{inst.uid} -= _steps")
        super().lower_instruction(out, inst)
        out.emit(f"_x{inst.uid} += _steps")

    def _close_iteration(self, out, loop):
        scope = self._scopes[loop]
        name = scope.name
        out.emit(f"_k = {scope.key}")
        out.emit(f"_s = _t{name}.get(_k)")
        out.emit("if _s is None:")
        out.indent += 1
        out.emit(f"_s = _t{name}[_k] = _expand(_table, _L{name}, _k)")
        out.indent -= 1
        out.emit(f"_m{name}[_s] = _m{name}.get(_s, 0) + 1")
        out.emit(" = ".join(scope.counters + ["0"]))
        if scope.nested:
            out.emit(f"_c{name} = []")

    def _enter_loop(self, out, loop):
        out.emit(f"_m{self._scopes[loop].name} = {{}}")

    def _exit_loop(self, out, loop):
        self._close_iteration(out, loop)
        out.emit(
            f"_c{self._scopes[loop.parent].name}.append(_close_instance("
            f"_table, _totals, {loop.header.name!r}, "
            f"_m{self._scopes[loop].name}))"
        )

    def _edge_events(self, out, source, target):
        entered = self._by_header.get(id(target))
        for loop in self._chain(source):
            if target in loop.blocks:
                if loop is entered:
                    entered = None
                    self._close_iteration(out, loop)  # back edge
                break
            self._exit_loop(out, loop)
        if entered is not None:
            self._enter_loop(out, entered)

    def _goto(self, out, target, states):
        self._edge_events(out, self._block, target)
        super()._goto(out, target, states)

    def lower_terminator(self, out, inst, states):
        if not isinstance(inst, insts.Return):
            return super().lower_terminator(out, inst, states)
        for loop in self._chain(self._block):
            self._exit_loop(out, loop)
        out.emit(f"_root = _expand(_table, _LR, {self._scopes[None].key})")
        out.emit("interp.steps = _steps")
        value = self.any_value(inst.value) if inst.operands else "None"
        out.emit(f"return {value}, _root, _totals")

    def _factory_bindings(self, out):
        out.emit("_expand = H.expand_iteration")
        out.emit("_close_instance = H.close_instance")
        for scope in self._scopes.values():
            out.emit(f"_L{scope.name} = {scope.layout!r}")

    def _prologue(self, out):
        out.emit("_totals = {}")
        for loop, scope in self._scopes.items():
            if scope.counters:
                out.emit(" = ".join(scope.counters + ["0"]))
            if scope.nested:
                out.emit(f"_c{scope.name} = []")
            if loop is not None:
                out.emit(f"_t{scope.name} = {{}}")


def lower_sequence(function, stops, logged, loops_by_header=None):
    """Generate (source, refs) for one function; raises Unsupported.

    ``loops_by_header`` (header name -> the function's natural loop) is
    what the stops are resolved against; a body without stops needs none.
    """
    lowering = _SequenceLowering(
        function, tuple(stops), bool(logged), loops_by_header
    )
    return lowering.lower(), lowering.refs


def exec_sequence(source, refs, function, stops, logged,
                  module_key=None):
    """``exec``-compile lowered function source against concrete refs.

    Split from :func:`compile_sequence` so the content-hash source
    cache can rebuild an entry for a re-decoded module without
    re-lowering (same split as :func:`repro.codegen.lower.exec_chunk`).
    """
    variant = "logged" if logged else "plain"
    filename = f"<repro-codegen @{function}:{variant}>"
    namespace = dict(_runtime.GENERATED_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    fn = namespace["_factory"](tuple(refs), _runtime)
    return CompiledSequence(
        fn=fn,
        source=source,
        function=function,
        stops=tuple(stops),
        logged=bool(logged),
        module_key=module_key,
        refs=tuple(refs),
    )


def compile_sequence(function, stops, logged, module_key=None,
                     loops_by_header=None):
    """Lower and ``exec``-compile one function's sequential stretches."""
    source, refs = lower_sequence(function, stops, logged, loops_by_header)
    return exec_sequence(
        source, refs, function.name, tuple(stops), bool(logged),
        module_key=module_key,
    )


def compile_profiled(function, loops):
    """Lower and ``exec``-compile ``function`` instrumented to profile.

    ``loops`` are the function's natural loops (the analysis record's).
    Not cached: a session profiles once.  Raises :class:`Unsupported`
    for what the lowering refuses — anything the plain lowering does,
    plus a function that can reach itself through calls, an entry block
    that is a loop header, and a loop block reachable around its header.
    """
    lowering = _ProfiledLowering(function, loops)
    return exec_sequence(
        lowering.lower(), lowering.refs, function.name, (), False
    )
