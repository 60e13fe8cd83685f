"""Reference interpreter for the repro IR.

Executes a module sequentially, producing the program's observable output
(the ordered list of ``print`` records) plus dynamic instruction counts.
Optionally drives a :class:`~repro.emulator.profile.Profiler` that builds
the dynamic loop-nest tree the critical-path evaluator consumes.

Semantics notes:

* an ``alloca`` denotes one object per *function activation* (re-executing
  the instruction returns the same storage, zero-initialized at frame
  entry on first touch);
* integer division/remainder truncate toward zero (C semantics);
* pointers are (storage, offset) pairs; ``getelementptr`` is bounds-checked
  against the object's slot count, so wild indexing fails loudly.
"""

import dataclasses
import math

from repro.analysis.loops import find_natural_loops
from repro.ir import instructions as insts
from repro.ir.types import FLOAT, INT, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable
from repro.util.errors import EmulationError


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one interpreted run."""

    output: list  # [(label or None, tuple of values)]
    return_value: object
    steps: int
    profile: object = None  # FunctionProfile when profiling was requested
    # One repro.util.regionstats.RegionStats per dispatched region when
    # the run used a parallel backend, in execution order.
    parallel_regions: list = dataclasses.field(default_factory=list)
    # Sequential-stretch execution modes when region compilation was
    # on: how many function calls ran compiled vs interpreted.
    sequence_stats: dict = dataclasses.field(default_factory=dict)

    def formatted_output(self):
        lines = []
        for label, values in self.output:
            rendered = " ".join(_render(v) for v in values)
            if label is not None:
                lines.append(f"{label} {rendered}".rstrip())
            else:
                lines.append(rendered)
        return lines


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _trunc_div(a, b):
    if b == 0:
        raise EmulationError("integer division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _trunc_rem(a, b):
    return a - _trunc_div(a, b) * b


#: What Python's arithmetic builtins raise on a domain or range error
#: (``sqrt(-1.0)``, ``exp(1000.0)``, ``int(inf)``, ``10.0 ** 400``,
#: ``0.0 ** -1.0``).  No engine lets one escape: the interpreter below
#: and the generated code's helpers (:mod:`repro.codegen.runtime`) both
#: catch exactly these and raise :func:`math_error`.
MATH_ERRORS = (ValueError, ArithmeticError)


def math_error(op, error):
    """The one :class:`EmulationError` for a :data:`MATH_ERRORS` in ``op``."""
    return EmulationError(f"math error in {op}: {error}")


def record_write(log, storage, slot):
    """Mark ``storage[slot]`` dirty in a write log *before* overwriting it.

    The runtime's non-store mutation paths (diff merges, reduction and
    lastprivate joins) go through this so the parent's inter-region
    write log sees every shared-state change, not just interpreted
    stores.  No-op cost when logging is off: callers guard on the log.
    """
    key = (id(storage), slot)
    if key not in log:
        log[key] = (storage, storage[slot])


class _Frame:
    __slots__ = ("function", "args", "registers", "objects", "global_overlay")

    def __init__(self, function, args):
        self.function = function
        self.args = list(args)
        self.registers = {}
        self.objects = {}
        # Per-frame privatized globals (name -> storage); used by the
        # simulated parallel runtime for threadprivate/reduction copies.
        self.global_overlay = {}


class Interpreter:
    """Executes IR functions; reusable across runs of the same module."""

    def __init__(self, module, max_steps=50_000_000, global_storage=None):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0
        self.output = []
        self.write_log = None  # see enable_write_log()
        self._global_storage = {}
        self._profiler = None
        self._profiled_function = None
        self._profiled_loops = None  # header block -> Loop, while profiling
        self._attributing_call = None
        if global_storage is not None:
            # Adopt live storage (a parallel worker joining a run in
            # progress) instead of re-initializing from the module.
            self._global_storage = global_storage
        else:
            for name, gvar in module.globals.items():
                self._global_storage[name] = self._initial_storage(gvar)

    # -- public API ---------------------------------------------------------

    def run(self, function_name="main", args=(), profiler=None, loops=None):
        """Execute ``function_name``; returns an :class:`ExecutionResult`.

        ``loops`` are the profiled function's natural loops when the
        caller already holds them (a session's analysis record); a bare
        module's are found here.
        """
        self.steps = 0
        self.output = []
        function = self.module.function(function_name)
        self._profiler = profiler
        self._profiled_function = function if profiler else None
        if profiler:
            if loops is None:
                loops = find_natural_loops(function)
            self._profiled_loops = {loop.header: loop for loop in loops}
        return_value = self._run_function(function, list(args))
        profile = profiler.finish() if profiler else None
        return ExecutionResult(
            list(self.output), return_value, self.steps, profile
        )

    def global_values(self, name):
        return list(self._global_storage[name])

    def enable_write_log(self, log=None):
        """Record an ``(object, slot)`` dirty mark for every store.

        Returns the log: ``(id(storage), slot) -> (storage, value before
        the first write)``.  Keeping the storage object in the entry
        pins it alive, so an id can never be recycled while the log is
        in use.  The parallel ``processes`` backend diffs shared state
        from this log (cost proportional to the writes a chunk made)
        instead of snapshotting and re-scanning every shared slot, and
        the parent interpreter keeps one enabled *between* regions so
        the payload codec can ship dirty-slot deltas against the pool
        workers' resident preludes.

        ``log`` lets several interpreters share one dict (the threads
        backend's worker shims feed the parent's inter-region log, so a
        threads-fallback region cannot mutate shared state behind the
        resident-prelude protocol's back).

        Installed as an instance-level handler-table override so the
        plain sequential interpreter's store path stays branch-free.
        """
        self.write_log = {} if log is None else log
        handlers = dict(type(self)._HANDLERS)
        handlers[insts.Store] = Interpreter._exec_store_logged
        self._HANDLERS = handlers
        return self.write_log

    # -- storage ----------------------------------------------------------------

    def _initial_storage(self, gvar):
        slots = gvar.value_type.slots()
        init = gvar.initializer
        if init is None:
            return self._zero_storage(gvar.value_type)
        if isinstance(init, list):
            if len(init) != slots:
                raise EmulationError(
                    f"initializer for @{gvar.name} has {len(init)} values, "
                    f"object has {slots} slots"
                )
            return list(init)
        storage = self._zero_storage(gvar.value_type)
        storage[0] = init
        return storage

    def _zero_storage(self, value_type):
        zero = 0
        scalar = value_type
        while hasattr(scalar, "element"):
            scalar = scalar.element
        if scalar == FLOAT:
            zero = 0.0
        return [zero] * value_type.slots()

    # -- execution ---------------------------------------------------------------

    def _run_function(self, function, args):
        frame = _Frame(function, args)
        profiling = function is self._profiled_function
        loops_by_header = self._profiled_loops
        loop_stack = []

        block = function.entry
        position = 0
        while True:
            if position >= len(block.instructions):
                raise EmulationError(
                    f"fell off the end of block {block.name} in "
                    f"@{function.name}"
                )
            inst = block.instructions[position]
            self.steps += 1
            if self.steps > self.max_steps:
                raise EmulationError(
                    f"exceeded max_steps={self.max_steps}; infinite loop?"
                )
            self._account(inst, profiling)

            if isinstance(inst, insts.Terminator):
                if isinstance(inst, insts.Return):
                    if profiling:
                        while loop_stack:
                            loop_stack.pop()
                            self._profiler.exit_loop()
                    if inst.operands:
                        return self._value(inst.value, frame)
                    return None
                next_block = self._branch_target(inst, frame)
                takeover = self._maybe_run_parallel_loop(
                    next_block, block, frame
                )
                if takeover is not None:
                    next_block = takeover
                if profiling:
                    self._track_loops(
                        next_block, loops_by_header, loop_stack
                    )
                block = next_block
                position = 0
                continue

            self._execute(inst, frame)
            position += 1

    def _branch_target(self, inst, frame):
        if isinstance(inst, insts.Jump):
            return inst.target
        if isinstance(inst, insts.Branch):
            condition = self._value(inst.condition, frame)
            return inst.if_true if condition else inst.if_false
        raise EmulationError(f"unknown terminator {inst.opcode}")

    def _maybe_run_parallel_loop(self, next_block, from_block, frame):
        """Hook for the simulated parallel runtime.

        Called on every block transition; a subclass may execute an entire
        planned loop in (simulated) parallel and return the loop's exit
        block to resume from.  The base interpreter never takes over.
        """
        return None

    def _track_loops(self, block, loops_by_header, loop_stack):
        # Leaving loops whose block set no longer contains the target.
        while loop_stack and block not in loop_stack[-1].blocks:
            loop_stack.pop()
            self._profiler.exit_loop()
        loop = loops_by_header.get(block)
        if loop is None:
            return
        if loop_stack and loop_stack[-1] is loop:
            self._profiler.next_iteration()
        else:
            loop_stack.append(loop)
            self._profiler.enter_loop(loop.header.name)

    def _account(self, inst, profiling):
        if self._profiler is None:
            return
        if profiling:
            self._profiler.count(inst.uid)
        elif self._attributing_call is not None:
            self._profiler.count(self._attributing_call)

    # -- instruction semantics -----------------------------------------------------

    def _value(self, value, frame):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Argument):
            return frame.args[value.index]
        if isinstance(value, GlobalVariable):
            overlay = frame.global_overlay.get(value.name)
            if overlay is not None:
                return (overlay, 0)
            return (self._global_storage[value.name], 0)
        if isinstance(value, insts.Instruction):
            try:
                return frame.registers[value]
            except KeyError:
                raise EmulationError(
                    f"use of unexecuted instruction %{value.uid}"
                ) from None
        raise EmulationError(f"cannot evaluate {value!r}")

    def _execute(self, inst, frame):
        handler = self._HANDLERS[type(inst)]
        handler(self, inst, frame)

    def _exec_alloca(self, inst, frame):
        if inst not in frame.objects:
            frame.objects[inst] = self._zero_storage(inst.allocated_type)
        frame.registers[inst] = (frame.objects[inst], 0)

    def _exec_load(self, inst, frame):
        storage, offset = self._value(inst.pointer, frame)
        frame.registers[inst] = storage[offset]

    def _exec_store(self, inst, frame):
        value = self._value(inst.value, frame)
        storage, offset = self._value(inst.pointer, frame)
        storage[offset] = value

    def _exec_store_logged(self, inst, frame):
        value = self._value(inst.value, frame)
        storage, offset = self._value(inst.pointer, frame)
        key = (id(storage), offset)
        log = self.write_log
        if key not in log:
            log[key] = (storage, storage[offset])
        storage[offset] = value

    def _exec_gep(self, inst, frame):
        storage, offset = self._value(inst.pointer, frame)
        index = self._value(inst.index, frame)
        array_type = inst.pointer.type.pointee
        if not 0 <= index < array_type.count:
            raise EmulationError(
                f"index {index} out of bounds for {array_type!r} "
                f"(gep #{inst.uid})"
            )
        stride = array_type.element.slots()
        frame.registers[inst] = (storage, offset + index * stride)

    def _exec_binop(self, inst, frame):
        a = self._value(inst.lhs, frame)
        b = self._value(inst.rhs, frame)
        op = inst.op
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        elif op == "div":
            if inst.type == INT:
                result = _trunc_div(a, b)
            else:
                if b == 0:
                    raise EmulationError("float division by zero")
                result = a / b
        elif op == "rem":
            result = _trunc_rem(a, b)
        elif op == "min":
            result = min(a, b)
        elif op == "max":
            result = max(a, b)
        elif op == "pow":
            try:
                result = a**b
            except MATH_ERRORS as error:
                raise math_error(op, error) from None
        elif op == "and":
            result = a & b
        elif op == "or":
            result = a | b
        elif op == "xor":
            result = a ^ b
        elif op == "shl":
            result = a << b
        elif op == "shr":
            result = a >> b
        else:
            raise EmulationError(f"unknown binop {op}")
        frame.registers[inst] = result

    def _exec_unop(self, inst, frame):
        value = self._value(inst.operand, frame)
        op = inst.op
        try:
            if op == "neg":
                result = -value
            elif op == "not":
                result = (not value) if isinstance(value, bool) else ~value
            elif op == "abs":
                result = abs(value)
            elif op == "sqrt":
                result = math.sqrt(value)
            elif op == "sin":
                result = math.sin(value)
            elif op == "cos":
                result = math.cos(value)
            elif op == "exp":
                result = math.exp(value)
            elif op == "log":
                result = math.log(value)
            elif op == "floor":
                result = float(math.floor(value))
            else:
                raise EmulationError(f"unknown unop {op}")
        except MATH_ERRORS as error:
            raise math_error(op, error) from None
        frame.registers[inst] = result

    def _exec_cmp(self, inst, frame):
        a = self._value(inst.lhs, frame)
        b = self._value(inst.rhs, frame)
        predicate = inst.predicate
        if predicate == "eq":
            result = a == b
        elif predicate == "ne":
            result = a != b
        elif predicate == "lt":
            result = a < b
        elif predicate == "le":
            result = a <= b
        elif predicate == "gt":
            result = a > b
        else:
            result = a >= b
        frame.registers[inst] = result

    def _exec_select(self, inst, frame):
        condition = self._value(inst.condition, frame)
        chosen = inst.if_true if condition else inst.if_false
        frame.registers[inst] = self._value(chosen, frame)

    def _exec_cast(self, inst, frame):
        value = self._value(inst.operand, frame)
        if inst.kind == "int_to_float":
            result = float(value)
        elif inst.kind == "float_to_int":
            try:
                result = int(value)
            except MATH_ERRORS as error:
                raise math_error(inst.kind, error) from None
        else:  # bool_to_int
            result = 1 if value else 0
        frame.registers[inst] = result

    def _exec_call(self, inst, frame):
        args = [self._value(op, frame) for op in inst.operands]
        outer_attribution = self._attributing_call
        if (
            self._profiler is not None
            and frame.function is self._profiled_function
        ):
            self._attributing_call = inst.uid
        result = self._run_function(inst.callee, args)
        self._attributing_call = outer_attribution
        if inst.callee.return_type.slots() != 0:
            frame.registers[inst] = result

    def _exec_print(self, inst, frame):
        values = tuple(self._value(op, frame) for op in inst.operands)
        self.output.append((inst.label, values))

    _HANDLERS = {
        insts.Alloca: _exec_alloca,
        insts.Load: _exec_load,
        insts.Store: _exec_store,
        insts.GetElementPtr: _exec_gep,
        insts.BinaryOp: _exec_binop,
        insts.UnaryOp: _exec_unop,
        insts.Compare: _exec_cmp,
        insts.Select: _exec_select,
        insts.Cast: _exec_cast,
        insts.Call: _exec_call,
        insts.Print: _exec_print,
    }


def run_module(module, function_name="main", args=(), profile=False):
    """Interpret a module's function; optionally build a loop-nest profile."""
    from repro.emulator.profile import Profiler

    interpreter = Interpreter(module)
    profiler = Profiler(function_name) if profile else None
    return interpreter.run(function_name, args, profiler)


def run_source(source, function_name="main", args=(), profile=False):
    """Compile MiniOMP source and interpret it in one call."""
    from repro.frontend import compile_source

    module = compile_source(source)
    return run_module(module, function_name, args, profile)
