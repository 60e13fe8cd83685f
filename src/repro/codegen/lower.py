"""Lower one DOALL chunk body from the IR to exec-compiled Python.

:func:`compile_chunk` turns a member loop of a parallel region into a
Python function with the *exact* semantics of
``_WorkerInterpreter.run_chunk``: per iteration it seeds the private
induction storage, executes the loop's blocks from the canonical body
until a terminator targets the loop header, counts one step per
executed instruction against ``max_steps``, and raises the same
:class:`EmulationError` conditions (GEP bounds, division by zero,
``return`` inside the body, math domain errors).

Representation choices:

* SSA values become Python locals ``_r<uid>``; pointer-typed values
  become local pairs ``_r<uid>_s`` / ``_r<uid>_o`` (the interpreter's
  ``(storage, offset)`` tuples, unpacked once).
* Live-in registers, the induction storage, arguments, and globals are
  bound *eagerly* at chunk entry, before any side effect; a missing
  binding raises :class:`~repro.codegen.runtime.Bailout` and the caller
  re-runs the chunk interpreted (which reproduces whatever error — or
  non-error — the interpreter's lazy lookup produces).
* Straight-line bodies (blocks chained by unconditional jumps back to
  the header) lower to linear code; anything with branches — including
  whole nested sequential loops, whose back edges simply target a
  lowered block — lowers to a ``while``/``elif`` state machine over
  block indices.
* Stores come in a ``logged`` variant that marks the shim's write log
  with ``record_write`` semantics, byte-for-byte what the interpreted
  store handler logs; the unlogged variant is a plain slot assignment.
* GEP bounds guards are *hoisted* out of linear-chain bodies when the
  index is affine in the chunk induction with iteration-invariant
  coefficients: a ``_fast`` predicate evaluated once per chunk checks
  the index at the extreme iteration values, and selects an unguarded
  body variant when every hoisted guard is provably in bounds.  The
  guarded variant is kept verbatim as the fallback, so an actual
  out-of-bounds access raises the interpreter's exact error at the
  exact iteration, and both variants count the same steps.
* Objects the generated code must reference by identity (alloca keys,
  live-in register keys, callee functions) arrive through the exec'd
  factory's ``refs`` tuple, so no IR object is ever re-created.

Anything outside the supported matrix raises :class:`Unsupported` and
the loop stays on the interpreter — never fail, always fall back.
"""

import dataclasses

from repro.ir import instructions as insts
from repro.ir.types import FLOAT, INT, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable
from repro.codegen import runtime as _runtime


class Unsupported(Exception):
    """The lowering refuses this loop; run it interpreted."""


@dataclasses.dataclass
class CompiledChunk:
    """One exec-compiled chunk body.

    ``fn(shim, frame, iterations)`` has ``run_chunk`` semantics minus
    the ``locks`` argument: compiled chunks are only selected for loops
    without critical/atomic blocks, where lock transitions are no-ops.
    """

    fn: object
    source: str
    function: str  # enclosing IR function name
    header: str  # loop header block name
    logged: bool  # stores mark the shim's write log
    module_key: str = None  # content hash, when the caller knows it
    refs: tuple = ()  # the IR objects the factory closed over

    @property
    def label(self):
        return f"{self.function}:{self.header}"


_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
        "ge": ">="}
_BINOP = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
          "xor": "^"}
_UNOP_HELPERS = {"not": "_u_not", "sqrt": "_u_sqrt", "sin": "_u_sin",
                 "cos": "_u_cos", "exp": "_u_exp", "log": "_u_log",
                 "floor": "_u_floor"}

_MAX_STEPS_MESSAGE = "parallel worker exceeded max_steps"


def _literal(value):
    """A Python literal reproducing ``value`` exactly, or Unsupported."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise Unsupported("non-finite float constant")
        return repr(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    raise Unsupported(f"constant of type {type(value).__name__}")


def _aff_sum(p, q, sign):
    """Combine two affine-term expression strings under ``+``/``-``."""
    if q == "0":
        return p
    if p == "0":
        return q if sign == "+" else f"-({q})"
    return f"({p} {sign} {q})"


def _aff_add(x, y, sign="+"):
    """``x ± y`` over ``(coefficient, constant)`` expression pairs."""
    return _aff_sum(x[0], y[0], sign), _aff_sum(x[1], y[1], sign)


def _aff_scale(aff, factor):
    """``factor * aff`` where ``factor`` is iteration-invariant."""

    def scale(term):
        if term == "0" or factor == "0":
            return "0"
        if term == "1":
            return factor
        if factor == "1":
            return term
        return f"(({factor}) * ({term}))"

    return scale(aff[0]), scale(aff[1])


def _aff_term(aff, iv_expr):
    """Render ``a * iv + b`` with ``iv`` substituted by ``iv_expr``."""
    a, b = aff
    if a == "0":
        return b
    scaled = iv_expr if a == "1" else f"({a}) * {iv_expr}"
    if b == "0":
        return scaled
    return f"{scaled} + ({b})"


def _zero_literal(value_type):
    """The zero a fresh alloca's slots hold (matches ``zero_storage``)."""
    scalar = value_type
    while hasattr(scalar, "element"):
        scalar = scalar.element
    return "0.0" if scalar == FLOAT else "0"


class _Emitter:
    def __init__(self):
        self.lines = []
        self.indent = 0

    def emit(self, line=""):
        self.lines.append("    " * self.indent + line if line else "")

    def source(self):
        return "\n".join(self.lines) + "\n"


class _Lowering:
    """Lowers one loop; collects refs/bindings while emitting the body."""

    def __init__(self, loop, logged, outer=None):
        if loop.canonical is None:
            raise Unsupported("loop lacks canonical form")
        if outer is not None and outer.canonical is None:
            raise Unsupported("nest outer loop lacks canonical form")
        self.loop = loop
        self.outer = outer  # interchanged nest: iterations are pairs
        self.logged = logged
        self.function = loop.header.parent
        self.blocks = [b for b in loop.blocks if b is not loop.header]
        self.defined = {
            id(inst) for b in self.blocks for inst in b.instructions
        }
        self.refs = []  # objects the factory receives positionally
        self._ref_names = {}  # id(obj) -> _k<i>
        self.live_ins = {}  # id(inst) -> (inst, is_pointer)
        self.args = {}  # index -> is_pointer
        self.globals = {}  # name -> local
        self.allocas = []  # (inst, ref name) allocas executed in the body
        self.counter = 0
        self.prologue = None  # per-chunk lines emitted before the loop
        self._skip_guards = frozenset()  # GEP ids lowered without guards

    # -- refs and operand rendering -----------------------------------------

    def ref(self, obj):
        name = self._ref_names.get(id(obj))
        if name is None:
            name = f"_k{len(self.refs)}"
            self._ref_names[id(obj)] = name
            self.refs.append(obj)
        return name

    def temp(self):
        self.counter += 1
        return f"_t{self.counter}"

    def _register(self, inst):
        """The local name(s) for an instruction's value."""
        pointer = isinstance(inst.type, PointerType)
        if id(inst) not in self.defined:
            self.live_ins[id(inst)] = (inst, pointer)
        if pointer:
            return f"_r{inst.uid}_s", f"_r{inst.uid}_o"
        return f"_r{inst.uid}"

    def scalar(self, value):
        """Python expression for a non-pointer operand."""
        if isinstance(value, Constant):
            return _literal(value.value)
        if isinstance(value, Argument):
            if isinstance(value.type, PointerType):
                raise Unsupported("pointer argument used as scalar")
            self.args.setdefault(value.index, False)
            return f"_a{value.index}"
        if isinstance(value, insts.Instruction):
            if isinstance(value.type, PointerType):
                raise Unsupported("pointer value used as scalar")
            return self._register(value)
        raise Unsupported(f"operand {value!r}")

    def pointer(self, value):
        """(storage expr, offset expr) for a pointer operand."""
        if isinstance(value, GlobalVariable):
            local = self.globals.get(value.name)
            if local is None:
                local = f"_gv{len(self.globals)}"
                self.globals[value.name] = local
            return local, "0"
        if isinstance(value, Argument):
            self.args[value.index] = True
            return f"_a{value.index}_s", f"_a{value.index}_o"
        if isinstance(value, insts.Instruction):
            if not isinstance(value.type, PointerType):
                raise Unsupported("scalar value used as pointer")
            return self._register(value)
        raise Unsupported(f"pointer operand {value!r}")

    def any_value(self, value):
        """Expression for an operand of either kind (call args, prints)."""
        pointer = isinstance(value.type, PointerType) and not isinstance(
            value, Constant
        )
        if pointer:
            storage, offset = self.pointer(value)
            return f"({storage}, {offset})"
        return self.scalar(value)

    # -- per-instruction statements ------------------------------------------

    def lower_instruction(self, out, inst):
        if isinstance(inst, insts.Alloca):
            key = self.ref(inst)
            slots = inst.allocated_type.slots()
            zero = _zero_literal(inst.allocated_type)
            name_s, _name_o = self._register(inst)
            out.emit(f"{name_s} = _objs.get({key})")
            out.emit(f"if {name_s} is None:")
            out.indent += 1
            out.emit(f"{name_s} = _objs[{key}] = [{zero}] * {slots}")
            out.indent -= 1
            out.emit(f"_r{inst.uid}_o = 0")
        elif isinstance(inst, insts.Load):
            if isinstance(inst.type, PointerType):
                raise Unsupported("load of a pointer value")
            storage, offset = self.pointer(inst.pointer)
            out.emit(f"{self._register(inst)} = {storage}[{offset}]")
        elif isinstance(inst, insts.Store):
            value = self.any_value(inst.value)
            storage, offset = self.pointer(inst.pointer)
            if self.logged:
                key = self.temp()
                out.emit(f"{key} = (id({storage}), {offset})")
                out.emit(f"if {key} not in _log:")
                out.indent += 1
                out.emit(f"_log[{key}] = ({storage}, {storage}[{offset}])")
                out.indent -= 1
            out.emit(f"{storage}[{offset}] = {value}")
        elif isinstance(inst, insts.GetElementPtr):
            self._lower_gep(out, inst)
        elif isinstance(inst, insts.BinaryOp):
            self._lower_binop(out, inst)
        elif isinstance(inst, insts.UnaryOp):
            self._lower_unop(out, inst)
        elif isinstance(inst, insts.Compare):
            a = self.scalar(inst.lhs)
            b = self.scalar(inst.rhs)
            op = _CMP[inst.predicate]
            out.emit(f"{self._register(inst)} = {a} {op} {b}")
        elif isinstance(inst, insts.Select):
            if isinstance(inst.type, PointerType):
                raise Unsupported("select over pointers")
            condition = self.scalar(inst.condition)
            if_true = self.scalar(inst.if_true)
            if_false = self.scalar(inst.if_false)
            out.emit(
                f"{self._register(inst)} = "
                f"({if_true}) if {condition} else ({if_false})"
            )
        elif isinstance(inst, insts.Cast):
            value = self.scalar(inst.operand)
            if inst.kind == "int_to_float":
                expr = f"float({value})"
            elif inst.kind == "float_to_int":
                # The guarded ``int`` (runtime.GENERATED_GLOBALS).
                expr = f"int({value})"
            else:  # bool_to_int
                expr = f"(1 if {value} else 0)"
            out.emit(f"{self._register(inst)} = {expr}")
        elif isinstance(inst, insts.Call):
            callee = self.ref(inst.callee)
            rendered = ", ".join(
                self.any_value(operand) for operand in inst.operands
            )
            out.emit("interp.steps = _steps")
            call = f"interp._run_function({callee}, [{rendered}])"
            if inst.callee.return_type.slots() != 0:
                if isinstance(inst.type, PointerType):
                    raise Unsupported("call returning a pointer")
                out.emit(f"{self._register(inst)} = {call}")
            else:
                out.emit(call)
            out.emit("_steps = interp.steps")
        elif isinstance(inst, insts.Print):
            values = ", ".join(
                self.any_value(operand) for operand in inst.operands
            )
            comma = "," if len(inst.operands) == 1 else ""
            out.emit(
                f"_out.append(({_literal(inst.label)}, "
                f"({values}{comma})))"
            )
        else:
            raise Unsupported(f"instruction {inst.opcode}")

    def _lower_gep(self, out, inst):
        storage, offset = self.pointer(inst.pointer)
        index = self.scalar(inst.index)
        array_type = inst.pointer.type.pointee
        if id(inst) not in self._skip_guards:
            suffix = (
                f" out of bounds for {array_type!r} (gep #{inst.uid})"
            )
            out.emit(f"if not 0 <= {index} < {array_type.count}:")
            out.indent += 1
            out.emit(
                "raise _EmulationError("
                f"f\"index {{{index}}}\" + {suffix!r})"
            )
            out.indent -= 1
        stride = array_type.element.slots()
        scaled = index if stride == 1 else f"{index} * {stride}"
        combined = scaled if offset == "0" else f"{offset} + {scaled}"
        out.emit(f"_r{inst.uid}_s = {storage}")
        out.emit(f"_r{inst.uid}_o = {combined}")

    def _lower_binop(self, out, inst):
        a = self.scalar(inst.lhs)
        b = self.scalar(inst.rhs)
        name = self._register(inst)
        op = inst.op
        if op in _BINOP:
            out.emit(f"{name} = {a} {_BINOP[op]} {b}")
        elif op == "div":
            if inst.type == INT:
                out.emit(f"{name} = _trunc_div({a}, {b})")
            else:
                out.emit(f"if {b} == 0:")
                out.indent += 1
                out.emit(
                    "raise _EmulationError('float division by zero')"
                )
                out.indent -= 1
                out.emit(f"{name} = {a} / {b}")
        elif op == "rem":
            out.emit(f"{name} = _trunc_rem({a}, {b})")
        elif op in ("shl", "shr") or (op == "pow" and inst.type == INT):
            # Guarded (a negative count or exponent is a math error);
            # only hand-written IR has these, so no prologue binding.
            out.emit(f"{name} = H.binary_function({op!r}, True)({a}, {b})")
        elif op in ("min", "max", "pow"):
            # ``pow`` is the guarded one (runtime.GENERATED_GLOBALS).
            out.emit(f"{name} = {op}({a}, {b})")
        else:
            raise Unsupported(f"binop {op}")

    def _lower_unop(self, out, inst):
        value = self.scalar(inst.operand)
        name = self._register(inst)
        if inst.op == "neg":
            out.emit(f"{name} = -{value}")
        elif inst.op == "abs":
            out.emit(f"{name} = abs({value})")
        elif inst.op in _UNOP_HELPERS:
            out.emit(f"{name} = {_UNOP_HELPERS[inst.op]}({value})")
        else:
            raise Unsupported(f"unop {inst.op}")

    # -- control flow ---------------------------------------------------------

    def _goto(self, out, target, states):
        """End-of-block transfer inside the state machine."""
        if target is self.loop.header:
            out.emit("break")
        elif target in states:
            out.emit(f"_b = {states[target]}")
            out.emit("continue")
        else:
            raise Unsupported(
                f"branch leaves the loop mid-body (to {target.name})"
            )

    def lower_terminator(self, out, inst, states):
        if isinstance(inst, insts.Return):
            out.emit(
                "raise _EmulationError("
                "'return inside a parallelized loop body')"
            )
        elif isinstance(inst, insts.Jump):
            self._goto(out, inst.target, states)
        elif isinstance(inst, insts.Branch):
            condition = self.scalar(inst.condition)
            out.emit(f"if {condition}:")
            out.indent += 1
            self._goto(out, inst.if_true, states)
            out.indent -= 1
            out.emit("else:")
            out.indent += 1
            self._goto(out, inst.if_false, states)
            out.indent -= 1
        else:
            raise Unsupported(f"terminator {inst.opcode}")

    def _step_check(self, out, count):
        out.emit(f"_steps += {count}")
        out.emit("if _steps > _max:")
        out.indent += 1
        out.emit(f"raise _EmulationError({_MAX_STEPS_MESSAGE!r})")
        out.indent -= 1

    def _linear_chain(self):
        """Body blocks chained by jumps to the header, or None."""
        chain = []
        seen = set()
        block = self.function.block(self.loop.canonical.body)
        while True:
            if block is self.loop.header or id(block) in seen:
                return None
            if block not in self.loop.blocks:
                return None
            seen.add(id(block))
            chain.append(block)
            terminator = block.instructions[-1] if block.instructions \
                else None
            if not isinstance(terminator, insts.Jump):
                return None
            if terminator.target is self.loop.header:
                return chain
            block = terminator.target

    def _reachable_blocks(self):
        """Lowered blocks reachable from the canonical body, in order."""
        body = self.function.block(self.loop.canonical.body)
        if body is self.loop.header:
            raise Unsupported("canonical body is the header")
        order = []
        seen = set()
        stack = [body]
        while stack:
            block = stack.pop()
            if id(block) in seen or block is self.loop.header:
                continue
            if block not in self.loop.blocks:
                raise Unsupported(
                    f"body reaches block {block.name} outside the loop"
                )
            seen.add(id(block))
            order.append(block)
            terminator = (
                block.instructions[-1] if block.instructions else None
            )
            if isinstance(terminator, insts.Terminator):
                stack.extend(reversed(terminator.successors()))
        # Keep loop.blocks order (deterministic) among reachable blocks.
        reachable = {id(block) for block in order}
        return [b for b in self.blocks if id(b) in reachable]

    # -- guard hoisting -------------------------------------------------------

    def _pristine_loads(self, chain):
        """Loads of the induction storage before any possible store.

        A load that happens before every store (and call — callees may
        store) in the iteration always observes the ``_iv[0] = _i``
        seed, so its value *is* the chunk induction variable.
        """
        induction = self.loop.canonical.induction
        pristine = set()
        clobbered = False
        for block in chain:
            for inst in block.instructions:
                if (
                    not clobbered
                    and isinstance(inst, insts.Load)
                    and inst.pointer is induction
                ):
                    pristine.add(id(inst))
                elif isinstance(inst, (insts.Store, insts.Call)):
                    clobbered = True
        return pristine

    def _affine_index(self, value, pristine, depth=0):
        """``value`` as ``(a, b)`` expression strings with value =
        ``a * _i + b``, or ``None`` when not provably affine.

        ``a`` and ``b`` only reference iteration-invariant names
        (constants, scalar int arguments, live-in registers), so the
        pair can be evaluated once at chunk entry.
        """
        if depth > 12:
            return None
        if isinstance(value, Constant):
            if isinstance(value.value, bool) or not isinstance(
                value.value, int
            ):
                return None
            return "0", repr(value.value)
        if isinstance(value, Argument):
            if value.type != INT:
                return None
            return "0", self.scalar(value)
        if not isinstance(value, insts.Instruction) or value.type != INT:
            return None
        if id(value) in pristine:
            return "1", "0"
        if id(value) not in self.defined:
            return "0", self.scalar(value)
        if isinstance(value, insts.BinaryOp):
            lhs = self._affine_index(value.lhs, pristine, depth + 1)
            rhs = self._affine_index(value.rhs, pristine, depth + 1)
            if lhs is None or rhs is None:
                return None
            if value.op == "add":
                return _aff_add(lhs, rhs, "+")
            if value.op == "sub":
                return _aff_add(lhs, rhs, "-")
            if value.op == "mul":
                if lhs[0] == "0":
                    return _aff_scale(rhs, lhs[1])
                if rhs[0] == "0":
                    return _aff_scale(lhs, rhs[1])
            return None
        if isinstance(value, insts.UnaryOp) and value.op == "neg":
            inner = self._affine_index(value.operand, pristine, depth + 1)
            return None if inner is None else _aff_scale(inner, "-1")
        return None

    def _hoisted_guards(self, chain):
        """id(gep) -> (affine index, bound) for the hoistable guards."""
        pristine = self._pristine_loads(chain)
        hoisted = {}
        for block in chain:
            for inst in block.instructions:
                if isinstance(inst, insts.GetElementPtr):
                    affine = self._affine_index(inst.index, pristine)
                    if affine is not None:
                        hoisted[id(inst)] = (
                            affine, inst.pointer.type.pointee.count
                        )
        return hoisted

    def _emit_fast_predicate(self, hoisted):
        """Emit the once-per-chunk ``_fast`` bounds proof (prologue).

        An affine index over any iteration set takes its extremes at
        the extreme iteration values, so checking ``min(iterations)``
        and ``max(iterations)`` covers every iteration regardless of
        scheduler chunking or coefficient sign.  Anything unexpected
        (weird runtime types, overflow) just disables the fast path.
        """
        out = self.prologue
        checks = []
        for affine, count in hoisted.values():
            ends = ("_ilo",) if affine[0] == "0" else ("_ilo", "_ihi")
            for end in ends:
                check = f"0 <= {_aff_term(affine, end)} < {count}"
                if check not in checks:
                    checks.append(check)
        out.emit("_fast = False")
        out.emit("if len(iterations):")
        out.indent += 1
        out.emit("try:")
        out.indent += 1
        out.emit("_ilo = min(iterations)")
        out.emit("_ihi = max(iterations)")
        out.emit("_fast = (")
        out.indent += 1
        for index, check in enumerate(checks):
            trailer = "" if index == len(checks) - 1 else " and"
            out.emit(f"{check}{trailer}")
        out.indent -= 1
        out.emit(")")
        out.indent -= 1
        out.emit("except Exception:")
        out.indent += 1
        out.emit("_fast = False")
        out.indent -= 2

    def _emit_chain(self, out, chain):
        self._step_check(
            out, sum(len(block.instructions) for block in chain)
        )
        for block in chain:
            for inst in block.instructions[:-1]:
                self.lower_instruction(out, inst)
            # The chain's jump terminators are control-flow only
            # (their step is in the block count above).

    def lower_body(self, out):
        """Emit the per-iteration statements (inside ``for _i in ...``)."""
        if self.outer is not None:
            out.emit("_ivo[0] = _t")
        out.emit("_iv[0] = _i")
        chain = self._linear_chain()
        if chain is not None:
            # Guard hoisting is scalar-only: min/max over nest pair
            # iterations would compare tuples, not induction values.
            hoisted = (
                self._hoisted_guards(chain)
                if self.prologue is not None and self.outer is None
                else {}
            )
            if hoisted:
                self._emit_fast_predicate(hoisted)
                out.emit("if _fast:")
                out.indent += 1
                self._skip_guards = frozenset(hoisted)
                self._emit_chain(out, chain)
                self._skip_guards = frozenset()
                out.indent -= 1
                out.emit("else:")
                out.indent += 1
                self._emit_chain(out, chain)
                out.indent -= 1
            else:
                self._emit_chain(out, chain)
            return
        blocks = self._reachable_blocks()
        states = {block: index for index, block in enumerate(blocks)}
        body = self.function.block(self.loop.canonical.body)
        out.emit(f"_b = {states[body]}")
        out.emit("while True:")
        out.indent += 1
        for index, block in enumerate(blocks):
            out.emit(f"{'if' if index == 0 else 'elif'} _b == {index}:")
            out.indent += 1
            if not block.instructions:
                raise Unsupported(f"empty block {block.name}")
            self._step_check(out, len(block.instructions))
            for inst in block.instructions[:-1]:
                if isinstance(inst, insts.Terminator):
                    raise Unsupported("terminator before end of block")
                self.lower_instruction(out, inst)
            terminator = block.instructions[-1]
            if isinstance(terminator, insts.Terminator):
                self.lower_terminator(out, terminator, states)
            else:
                # run_chunk raises when a block fails to terminate.
                out.emit(
                    "raise _EmulationError("
                    f"{('worker fell off block ' + block.name)!r})"
                )
            out.indent -= 1
        out.indent -= 1

    # -- whole-chunk assembly -------------------------------------------------

    def _entry_bindings(self, out):
        """Emit the eager entry bindings (inside the Bailout try)."""
        out.emit(f"_iv = _objs[{self.ref(self.loop.canonical.induction)}]")
        if self.outer is not None:
            out.emit(
                f"_ivo = _objs[{self.ref(self.outer.canonical.induction)}]"
            )
        for inst, pointer in self.live_ins.values():
            key = self.ref(inst)
            if pointer:
                out.emit(
                    f"_r{inst.uid}_s, _r{inst.uid}_o = "
                    f"frame.registers[{key}]"
                )
            else:
                out.emit(f"_r{inst.uid} = frame.registers[{key}]")
        for index in sorted(self.args):
            if self.args[index]:
                out.emit(
                    f"_a{index}_s, _a{index}_o = frame.args[{index}]"
                )
            else:
                out.emit(f"_a{index} = frame.args[{index}]")
        for name in self.globals:
            local = self.globals[name]
            out.emit(f"{local} = frame.global_overlay.get({name!r})")
            out.emit(f"if {local} is None:")
            out.indent += 1
            out.emit(f"{local} = interp._global_storage[{name!r}]")
            out.indent -= 1

    def lower(self):
        # The body and entry sections are emitted first so ref
        # collection completes before the unpack line is written.
        self.prologue = _Emitter()
        self.prologue.indent = 2  # def _factory / def _chunk
        body = _Emitter()
        body.indent = 3  # def _factory / def _chunk / for _i
        self.lower_body(body)
        entry = _Emitter()
        entry.indent = 3  # def _factory / def _chunk / try
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
        out.emit("_trunc_div = H.trunc_div")
        out.emit("_trunc_rem = H.trunc_rem")
        for helper in sorted(set(_UNOP_HELPERS.values())):
            out.emit(f"{helper} = H.{helper[1:]}")
        out.emit("def _chunk(interp, frame, iterations):")
        out.indent += 1
        out.emit("_objs = frame.objects")
        out.emit("_out = interp.output")
        out.emit("_max = interp.max_steps")
        out.emit("_steps = interp.steps")
        if self.logged:
            out.emit("_log = interp.write_log")
        out.emit("try:")
        out.lines.extend(entry.lines)
        out.emit("except (KeyError, IndexError, TypeError, ValueError):")
        out.indent += 1
        out.emit("raise _Bailout() from None")
        out.indent -= 1
        out.lines.extend(self.prologue.lines)
        if self.outer is not None:
            out.emit("for _t, _i in iterations:")
        else:
            out.emit("for _i in iterations:")
        out.lines.extend(body.lines)
        out.emit("interp.steps = _steps")
        out.indent -= 1
        out.emit("return _chunk")
        return out.source()


def lower_chunk(loop, logged, outer=None):
    """Generate (source, refs) for one loop; raises :class:`Unsupported`.

    Lowering the body *collects* the entry bindings (live-ins, args,
    globals, refs), so the body is emitted first and spliced into the
    chunk skeleton by :meth:`_Lowering.lower`.  With ``outer`` (an
    interchanged nest's outer loop) the chunk iterates ``(outer,
    inner)`` pairs and seeds both induction storages.
    """
    lowering = _Lowering(loop, logged, outer=outer)
    return lowering.lower(), lowering.refs


def exec_chunk(source, refs, function, header, logged, module_key=None):
    """``exec``-compile lowered chunk source against concrete IR refs.

    Split out of :func:`compile_chunk` so the content-hash source cache
    can rebuild an entry for a *re-decoded* module (same source, new ref
    objects) without re-lowering.
    """
    variant = "logged" if logged else "plain"
    filename = f"<repro-codegen {function}:{header}:{variant}>"
    namespace = dict(_runtime.GENERATED_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    fn = namespace["_factory"](tuple(refs), _runtime)
    return CompiledChunk(
        fn=fn,
        source=source,
        function=function,
        header=header,
        logged=bool(logged),
        module_key=module_key,
        refs=tuple(refs),
    )


def compile_chunk(loop, logged, module_key=None, outer=None):
    """Lower and ``exec``-compile one loop's chunk body."""
    source, refs = lower_chunk(loop, bool(logged), outer=outer)
    return exec_chunk(
        source, refs, loop.header.parent.name, loop.header.name,
        bool(logged), module_key=module_key,
    )
