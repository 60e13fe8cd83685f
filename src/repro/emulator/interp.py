"""Reference interpreter for the repro IR.

Executes a module sequentially, producing the program's observable output
(the ordered list of ``print`` records) plus dynamic instruction counts.
Optionally drives a :class:`~repro.emulator.profile.Profiler` that interns
the dynamic loop nest into the shapes the critical-path evaluator consumes.

Semantics notes:

* an ``alloca`` denotes one object per *function activation* (re-executing
  the instruction returns the same storage, zero-initialized at frame
  entry on first touch);
* integer division/remainder truncate toward zero (C semantics);
* pointers are (storage, offset) pairs; ``getelementptr`` is bounds-checked
  against the object's slot count, so wild indexing fails loudly.

Execution is *decode once* (:func:`decode_block`): the first time a
block runs, each instruction becomes a closure ``op(interp, frame)``
that reads its operands inline (one Python call per step), and every
fetch-execute loop — here, a worker's chunk, the seeded stepper in
:mod:`repro.runtime.backends` — walks those.  The table of decoded
blocks belongs to the interpreter, never to the IR (the module is
pickled to pool workers and its bytes key the codec caches), and each
:meth:`Interpreter.run` starts an empty one, so IR edited between runs
is decoded as edited.
"""

import dataclasses
import math
import operator

from repro.analysis.record import FunctionAnalyses
from repro.ir import instructions as insts
from repro.ir.basicblock import BasicBlock
from repro.ir.types import FLOAT, INT
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


def _float_div(a, b):
    if b == 0:
        raise EmulationError("float division by zero")
    return a / b


#: What Python's arithmetic builtins raise on a domain or range error
#: (``sqrt(-1.0)``, ``exp(1000.0)``, ``int(inf)``, ``10.0 ** 400``,
#: ``0.0 ** -1.0``, ``1 << -1``).  No engine lets one escape: the
#: operator tables below are what the interpreter decodes to *and* what
#: the generated code's helpers (:mod:`repro.codegen.runtime`) call, and
#: they catch exactly these and raise :func:`math_error`.
MATH_ERRORS = (ValueError, ArithmeticError)


def math_error(op, error):
    """The one :class:`EmulationError` for a :data:`MATH_ERRORS` in ``op``."""
    return EmulationError(f"math error in {op}: {error}")


def _guarded(op, fn):
    def helper(*args):
        try:
            return fn(*args)
        except MATH_ERRORS as error:
            raise math_error(op, error) from None

    return helper


def _int_pow(a, b):
    if b < 0:
        # Python would answer with a float in an int-typed register.
        raise math_error("pow", f"negative exponent {b} on an int")
    return a**b


def _not(value):
    return (not value) if isinstance(value, bool) else ~value


#: Operator name -> the callable that computes it.  ``div`` and ``pow``
#: depend on the instruction's type: see :func:`binary_function`.
BINARY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "rem": _trunc_rem, "min": min, "max": max,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": _guarded("shl", operator.lshift),
    "shr": _guarded("shr", operator.rshift),
}
_TYPED_BINARY = {
    ("div", True): _trunc_div, ("div", False): _float_div,
    ("pow", True): _int_pow, ("pow", False): _guarded("pow", pow),
}
UNARY = {
    "neg": operator.neg, "abs": abs, "not": _not,
    "floor": _guarded("floor", lambda value: float(math.floor(value))),
    **{op: _guarded(op, getattr(math, op))
       for op in ("sqrt", "sin", "cos", "exp", "log")},
}
CASTS = {
    "int_to_float": float,
    "float_to_int": _guarded("float_to_int", int),
    "bool_to_int": lambda value: 1 if value else 0,
}
_COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def binary_function(op, is_int):
    """The callable for binary ``op`` on int (or float) operands."""
    return _TYPED_BINARY.get((op, is_int)) or BINARY[op]


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


def zero_storage(value_type):
    zero = 0
    scalar = value_type
    while hasattr(scalar, "element"):
        scalar = scalar.element
    if scalar == FLOAT:
        zero = 0.0
    return [zero] * value_type.slots()


# -- decoding: one closure per instruction, resolved once ------------------------


def operand_getter(value):
    """``get(interp, frame)`` for one operand, its kind resolved now.  A
    decoded op calls one only for what it cannot read inline: an
    argument anywhere but as a ``gep`` base, a ``call`` or ``print``
    operand."""
    if isinstance(value, Constant):
        constant = value.value
        return lambda interp, frame: constant
    if isinstance(value, Argument):
        index = value.index
        return lambda interp, frame: frame.args[index]
    if isinstance(value, GlobalVariable):
        name = value.name

        def get(interp, frame):
            overlay = frame.global_overlay.get(name)
            if overlay is not None:
                return (overlay, 0)
            return (interp._global_storage[name], 0)

        return get
    if isinstance(value, insts.Instruction):

        def get(interp, frame):
            try:
                return frame.registers[value]
            except KeyError as error:
                raise _unexecuted(error) from None

        return get
    raise EmulationError(f"cannot evaluate {value!r}")


def _unexecuted(error):
    """The error for a ``KeyError`` out of ``frame.registers``."""
    return EmulationError(
        f"use of unexecuted instruction %{error.args[0].uid}"
    )


def _inline(*values):
    """Whether an op reads all of ``values`` inline: registers, and
    constants it binds at decode time (:func:`_constant`)."""
    return all(isinstance(v, (insts.Instruction, Constant)) for v in values)


def _constant(value):
    """A constant operand's value; ``None`` for a register, which the op
    reads as ``registers[value]``."""
    return value.value if isinstance(value, Constant) else None


def _apply1(inst, fn, a):
    """``registers[inst] = fn(a)``, a register or constant read inline."""
    if not _inline(a):
        get = operand_getter(a)

        def op(interp, frame):
            frame.registers[inst] = fn(get(interp, frame))

        return op
    constant = _constant(a)

    def op(interp, frame):
        registers = frame.registers
        try:
            registers[inst] = fn(
                registers[a] if constant is None else constant
            )
        except KeyError as error:
            raise _unexecuted(error) from None

    return op


def _apply2(inst, fn, a, b):
    """``registers[inst] = fn(a, b)``, registers and constants read
    inline: every operand of a binary or compare the frontend emits."""
    if not _inline(a, b):
        get_a, get_b = operand_getter(a), operand_getter(b)

        def op(interp, frame):
            frame.registers[inst] = fn(
                get_a(interp, frame), get_b(interp, frame)
            )

        return op
    constant_a, constant_b = _constant(a), _constant(b)

    def op(interp, frame):
        registers = frame.registers
        try:
            registers[inst] = fn(
                registers[a] if constant_a is None else constant_a,
                registers[b] if constant_b is None else constant_b,
            )
        except KeyError as error:
            raise _unexecuted(error) from None

    return op


def _decode_alloca(inst):
    zeros = zero_storage(inst.allocated_type)

    def op(interp, frame):
        objects = frame.objects
        if inst not in objects:
            objects[inst] = list(zeros)
        frame.registers[inst] = (objects[inst], 0)

    return op


def _decode_load(inst):
    pointer = inst.pointer
    if isinstance(pointer, GlobalVariable):
        name = pointer.name

        def op(interp, frame):
            overlay = frame.global_overlay
            frame.registers[inst] = (
                overlay[name] if name in overlay
                else interp._global_storage[name]
            )[0]

        return op
    if not isinstance(pointer, insts.Instruction):
        return _apply1(inst, lambda pointer: pointer[0][pointer[1]], pointer)

    def op(interp, frame):
        registers = frame.registers
        try:
            storage, offset = registers[pointer]
        except KeyError as error:
            raise _unexecuted(error) from None
        registers[inst] = storage[offset]

    return op


def _decode_store(inst):
    value, pointer = inst.operands
    constant = _constant(value)
    if isinstance(pointer, GlobalVariable) and _inline(value):
        name = pointer.name

        def op(interp, frame):
            try:
                stored = (
                    frame.registers[value] if constant is None else constant
                )
            except KeyError as error:
                raise _unexecuted(error) from None
            overlay = frame.global_overlay
            (
                overlay[name] if name in overlay
                else interp._global_storage[name]
            )[0] = stored

        return op
    if not _inline(value) or not isinstance(pointer, insts.Instruction):
        get_value, get_pointer = map(operand_getter, inst.operands)

        def op(interp, frame):
            stored = get_value(interp, frame)
            storage, offset = get_pointer(interp, frame)
            storage[offset] = stored

        return op

    def op(interp, frame):
        registers = frame.registers
        try:  # the value first: it is the one named when both are missing
            stored = registers[value] if constant is None else constant
            storage, offset = registers[pointer]
        except KeyError as error:
            raise _unexecuted(error) from None
        storage[offset] = stored

    return op


def _decode_gep(inst):
    """``(storage, offset + index * stride)``, the index bounds-checked;
    read inline when the base is a register, a global or an argument."""
    array_type = inst.pointer.type.pointee
    count = array_type.count
    stride = array_type.element.slots()
    suffix = f" out of bounds for {array_type!r} (gep #{inst.uid})"
    base, index = inst.pointer, inst.index
    constant = _constant(index)
    if isinstance(base, GlobalVariable) and _inline(index):
        name = base.name

        def op(interp, frame):
            registers, overlay = frame.registers, frame.global_overlay
            try:
                i = registers[index] if constant is None else constant
            except KeyError as error:
                raise _unexecuted(error) from None
            if not 0 <= i < count:
                raise EmulationError(f"index {i}" + suffix)
            registers[inst] = (
                overlay[name] if name in overlay
                else interp._global_storage[name],
                i * stride,
            )

    elif _inline(base, index):

        def op(interp, frame):
            registers = frame.registers
            try:
                storage, offset = registers[base]
                i = registers[index] if constant is None else constant
            except KeyError as error:
                raise _unexecuted(error) from None
            if not 0 <= i < count:
                raise EmulationError(f"index {i}" + suffix)
            registers[inst] = (storage, offset + i * stride)

    elif isinstance(base, Argument) and _inline(index):
        position = base.index

        def op(interp, frame):
            registers = frame.registers
            storage, offset = frame.args[position]
            try:
                i = registers[index] if constant is None else constant
            except KeyError as error:
                raise _unexecuted(error) from None
            if not 0 <= i < count:
                raise EmulationError(f"index {i}" + suffix)
            registers[inst] = (storage, offset + i * stride)

    else:

        def element(pointer, index):
            if not 0 <= index < count:
                raise EmulationError(f"index {index}" + suffix)
            return (pointer[0], pointer[1] + index * stride)

        return _apply2(inst, element, base, index)
    return op


def _decode_select(inst):
    if not _inline(*inst.operands):
        condition, if_true, if_false = map(operand_getter, inst.operands)

        def op(interp, frame):
            chosen = if_true if condition(interp, frame) else if_false
            frame.registers[inst] = chosen(interp, frame)

        return op
    condition, constant = inst.condition, _constant(inst.condition)
    arms = [(arm, _constant(arm)) for arm in (inst.if_true, inst.if_false)]

    def op(interp, frame):
        registers = frame.registers
        try:  # the chosen arm only
            truth = registers[condition] if constant is None else constant
            arm, value = arms[0] if truth else arms[1]
            registers[inst] = registers[arm] if value is None else value
        except KeyError as error:
            raise _unexecuted(error) from None

    return op


def _decode_call(inst):
    getters = [operand_getter(value) for value in inst.operands]
    callee, uid = inst.callee, inst.uid

    def op(interp, frame):
        args = [get(interp, frame) for get in getters]
        outer_attribution = interp._attributing_call
        if (
            interp._profiler is not None
            and frame.function is interp._profiled_function
        ):
            interp._attributing_call = uid
        result = interp._run_function(callee, args)
        interp._attributing_call = outer_attribution
        if callee.return_type.slots() != 0:
            frame.registers[inst] = result

    return op


def _decode_print(inst):
    getters = [operand_getter(value) for value in inst.operands]

    def op(interp, frame):
        values = tuple([get(interp, frame) for get in getters])
        interp.output.append((inst.label, values))

    return op


def _decode_jump(inst):
    target = inst.target
    return lambda interp, frame: target


def _decode_branch(inst):
    condition, if_true, if_false = inst.condition, inst.if_true, inst.if_false
    if not _inline(condition):
        condition = operand_getter(condition)
        return lambda interp, frame: (
            if_true if condition(interp, frame) else if_false
        )
    constant = _constant(condition)

    def op(interp, frame):
        try:
            if frame.registers[condition] if constant is None else constant:
                return if_true
        except KeyError as error:
            raise _unexecuted(error) from None
        return if_false

    return op


def _decode_return(inst):
    value = (
        operand_getter(inst.value) if inst.operands
        else lambda interp, frame: None
    )
    return lambda interp, frame: value


_DECODERS = {
    insts.Alloca: _decode_alloca,
    insts.Load: _decode_load,
    insts.Store: _decode_store,
    insts.GetElementPtr: _decode_gep,
    insts.BinaryOp: lambda inst: _apply2(
        inst, binary_function(inst.op, inst.type == INT), inst.lhs, inst.rhs
    ),
    insts.UnaryOp: lambda inst: _apply1(inst, UNARY[inst.op], inst.operand),
    insts.Compare: lambda inst: _apply2(
        inst, _COMPARE[inst.predicate], inst.lhs, inst.rhs
    ),
    insts.Select: _decode_select,
    insts.Cast: lambda inst: _apply1(inst, CASTS[inst.kind], inst.operand),
    insts.Call: _decode_call,
    insts.Print: _decode_print,
    insts.Jump: _decode_jump,
    insts.Branch: _decode_branch,
    insts.Return: _decode_return,
}


def decode_block(block):
    """One ``op(interp, frame)`` per instruction of ``block``, in order.

    A loop runs them all and looks at what the last one returned: the
    next block after a ``jump``/``branch``, the returned value's getter
    (not a block) after a ``return``, ``None`` when the block has no
    terminator to end on (reported as falling off it).
    """
    return tuple(_DECODERS[type(inst)](inst) for inst in block.instructions)


class Interpreter:
    """Executes IR functions; reusable across runs of the same module."""

    def __init__(self, module, max_steps=50_000_000, global_storage=None):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0
        self.output = []
        self._decoded = {}  # block -> decode_block(block), this run's
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
        module's come from a record built here.
        """
        self.steps = 0
        self.output = []
        self._decoded = {}
        function = self.module.function(function_name)
        self._profiler = profiler
        self._profiled_function = function if profiler else None
        if profiler:
            if loops is None:
                loops = FunctionAnalyses(function, self.module).loops
            self._profiled_loops = {loop.header: loop for loop in loops}
        return_value = self._run_function(function, list(args))
        profile = profiler.finish() if profiler else None
        return ExecutionResult(
            list(self.output), return_value, self.steps, profile
        )

    # -- storage ----------------------------------------------------------------

    def _initial_storage(self, gvar):
        slots = gvar.value_type.slots()
        init = gvar.initializer
        if init is None:
            return zero_storage(gvar.value_type)
        if isinstance(init, list):
            if len(init) != slots:
                raise EmulationError(
                    f"initializer for @{gvar.name} has {len(init)} values, "
                    f"object has {slots} slots"
                )
            return list(init)
        storage = zero_storage(gvar.value_type)
        storage[0] = init
        return storage

    # -- execution ---------------------------------------------------------------

    def _decode(self, block):
        """Decode ``block``: its first execution in this run."""
        code = self._decoded[block] = decode_block(block)
        return code

    def _run_function(self, function, args):
        frame = _Frame(function, args)
        profiling = function is self._profiled_function
        accounting = self._profiler is not None
        loops_by_header = self._profiled_loops
        loop_stack = []
        decoded = self._decoded
        max_steps = self.max_steps

        block = function.entry
        while True:
            next_block = None
            ops = decoded.get(block) or self._decode(block)
            for inst, op in zip(block.instructions, ops):
                self.steps += 1
                if self.steps > max_steps:
                    raise EmulationError(
                        f"exceeded max_steps={max_steps}; infinite loop?"
                    )
                if accounting:
                    self._account(inst, profiling)
                next_block = op(self, frame)
            if next_block is None:
                raise EmulationError(
                    f"fell off the end of block {block.name} in "
                    f"@{function.name}"
                )
            if type(next_block) is not BasicBlock:  # a return
                if profiling:
                    while loop_stack:
                        loop_stack.pop()
                        self._profiler.exit_loop()
                return next_block(self, frame)
            takeover = self._maybe_run_parallel_loop(
                next_block, block, frame
            )
            if takeover is not None:
                next_block = takeover
            if profiling:
                self._track_loops(next_block, loops_by_header, loop_stack)
            block = next_block

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
        if profiling:
            self._profiler.count(inst.uid)
        elif self._attributing_call is not None:
            self._profiler.count(self._attributing_call)


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
