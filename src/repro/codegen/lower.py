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
* **The structured walk.**  The body is emitted as the loop nest it
  is: the walk follows jumps through straight-line segments, turns a
  natural loop whose only exit is its header's branch into a Python
  loop (``for v in range(v, hi)`` when the header is exactly ``load v;
  v < hi; branch``, the single latch exactly ``v = v + 1`` and nothing
  else stores ``v``; otherwise ``while True: <header>; if not c:
  break``), and turns a branch into ``if``/``else`` up to the arms'
  immediate post-dominator.  A linear chain is the depth-0 case.  One
  ``_steps += n; if _steps > _max`` covers each emitted segment (the
  header, straight body and latch of a counted loop are one segment,
  which the array tier below may charge once for all its iterations).
* **Promotion.**  A scalar alloca whose every use in the body is a
  direct load or store — the chunk's own induction storage, inner
  induction variables, accumulators — lives in a Python local ``_p<uid>``
  for the whole chunk and is written back to its ``frame.objects`` slot
  in a ``finally`` when the chunk ends, exceptions included.  An alloca
  whose address reaches a call, a ``gep`` or another store stays in its
  slot.
* **The bounds proof.**  A ``gep`` whose index is affine (integer
  coefficients) in the chunk's induction values, the enclosing counted
  induction variables and chunk invariants is lowered without its guard
  when the index is in bounds over the *box* where it runs (the form is
  :mod:`repro.analysis.affine`'s, named by locals:
  :meth:`_Lowering._leaf`; a single-store local reads as the value it
  stored): the constant intervals of the chunk's canonical range (which
  holds every partition) and of counted loops (``[init, hi - 1]``),
  narrowed inside an ``if`` arm by the arm's condition.  The proof is
  made once, when the body is lowered, and is the rule every lowering
  keeps; every other guard stays inline and raises the interpreter's
  error at the interpreter's iteration.
* **Constant divisors.**  An INT ``div``/``rem`` by a non-zero int
  constant is an inline expression with the interpreter's truncation
  (``a % C if a >= 0 else -(-a % C)``, ``C = |c|``): no helper call,
  and it cannot raise.  A zero or non-constant divisor keeps
  ``_trunc_div``/``_trunc_rem`` and their error text.
* **The array tier.**  A counted loop whose body, from the header's
  branch to the latch, is one straight segment (jumps only: no ``if``,
  no nested loop) gets a preheader in front of its ``for``.  Each
  rewrite is a pattern and the side condition the walk checks;
  whatever fails one keeps its statement where it was:

  - *charge once*: ``if v < hi: _steps += K * (hi - v)`` and the
    ``max_steps`` check replace the per-iteration ``_steps += K`` when
    no statement of the body can raise or leave first — no guarded
    ``gep``, no division but by a non-zero constant, no call, no
    guarded unary, no cast but ``bool_to_int`` and ``float`` of such a
    remainder (below ``|c|``, it cannot overflow), no ``print``.  The
    success path's steps stay exact; a trip raises the same message
    before the loop instead of partway through it, the coarsening
    segment counting already makes.  The rest of the preheader runs
    under that ``if``.
  - *hoist*: a value read only inside the loop runs once in the
    preheader when it is the same in every iteration: a read of a
    promoted scalar that nothing in the loop stores (or allocates);
    ``add``/``sub``/``mul`` and a proven ``gep`` over constants, values
    from outside the loop or hoisted values; and, charged once, a load
    from such an address whose root (the global, alloca or pointer the
    body's geps start from) is *distinct* from every root the loop
    stores — two different globals or allocas of the body; a pointer
    register, argument or outer alloca may hold any storage.
  - *fold*: a proven ``gep`` whose one use is the pointer of a load or
    store later in its block is not a statement: its offset is that
    subscript.
  - *fuse*: charged once, a value whose one use is a later statement of
    the body is spelled inside that use, parenthesized whole (no float
    re-association); a load only if no store lies between the two, and
    never as a dividend the inline division spells twice.
  - *slices*: charged once, with a constant trip count of at least
    ``_SLICE_FLOOR``, every load the body keeps a *lane* ``S[base +
    v]`` (an invariant pointer, stride 1, coefficient 1 on ``v``) and
    no memory dependence carried — each root other than the stored one
    distinct from it, the stored root read only at the slot it stores
    and before the store — the loop reads its lanes as whole slices:
    its one store becomes ``D[b + v:b + hi] = [<value> for <lanes> in
    zip(...)]`` (a value the store does not fuse is a ``for t in [e]``
    clause), and a loop carrying a promoted scalar and storing no
    memory a ``for <lanes> in zip(...)`` over the same slices.  Never
    ``sum()``: on Python >= 3.12 it is compensated, not the
    interpreter's left-to-right accumulation.

  Sequences and profiles promote function-wide and get all of it
  (:mod:`repro.codegen.seq`).
* What the walk refuses — a loop left from a block other than its
  header, arms that never rejoin, a block reached twice, an induction
  alloca whose address escapes, a nest deeper than CPython compiles —
  is an :class:`Unsupported` naming the block, and the loop runs on the
  interpreter: the walk is the only control-flow emitter, the
  interpreter the only fallback.  Only hand-written IR has such shapes.
* The walk has seams a chunk leaves empty and the whole-function
  lowerings of :mod:`repro.codegen.seq` fill: a nested loop may be a
  planned region's stop (:meth:`_Lowering._emit_loop`), an arm may leave
  its loop for good to ``return`` (:meth:`_Lowering._emit_tail`), and a
  loop has three event positions — enter (told the induction of a
  counted loop), iterate, exit — where the profiled lowering counts.
* **Critical sections.**  Where the walk crosses an edge into or out of
  a block of a ``critical``/``atomic`` annotation of the function, it
  emits the call ``_WorkerInterpreter.run_chunk`` makes on that edge,
  ``locks.transition(_held, from_block, to_block)``, looked up on
  ``locks`` per call; ``locks.release_all(_held)`` ends an iteration
  that may return to the header from such a block, and the chunk's
  ``finally``.  The candidate blocks are the annotations', not the
  plan's: a lock sync elimination removed is absent from the region's
  lock map, so its transitions do nothing.  A counted loop with such an
  edge inside keeps its per-iteration body, not the array tier.
* A store is a plain slot assignment and a loop has one body: the
  ``VERIFY_COMPILED`` oracle runs that body too and compares storage
  images (:func:`repro.codegen.runtime._differential`).
* Objects the generated code must reference by identity (alloca keys,
  live-in register keys, callee functions) arrive through the exec'd
  factory's ``refs`` tuple, so no IR object is ever re-created; so do
  the profile's layouts, constant tuples ``compile`` would fold anew.

Anything outside the supported matrix raises :class:`Unsupported` and
the loop stays on the interpreter — never fail, always fall back.
"""

import dataclasses
import re
import types

from repro.analysis.affine import (
    AffineExpr,
    affine_form,
    arm_box,
    gep_offset,
    iteration_range,
)
from repro.analysis.dominators import immediate_dominators
from repro.ir import instructions as insts
from repro.ir.types import FLOAT, INT, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable
from repro.codegen import runtime as _runtime


class Unsupported(Exception):
    """The lowering refuses this loop; run it interpreted."""


def _refused(block, why):
    """The walk's refusal: the block it stopped at and why."""
    return Unsupported(f"{block.name}: {why}")


#: Where a walk that only a ``return`` ends is headed (the function's
#: virtual exit; no block is it).
_RETURNED = object()

#: What CPython compiles: 20 statically nested blocks (loops and
#: ``try``) and 99 levels of indentation.  A block's own statements
#: (guards, lazy allocas, a stop's flush) nest at most two deeper.
_MAX_BLOCKS = 20
_MAX_INDENT = 96


@dataclasses.dataclass
class CompiledChunk:
    """One exec-compiled chunk body.

    ``fn(shim, frame, iterations, locks)`` has ``run_chunk`` semantics,
    lock transitions included: ``locks`` is the backend's lock provider
    (``_ThreadLocks`` on ``threads``, ``_NullLocks`` in a pool child).
    """

    fn: object
    source: str
    function: str  # enclosing IR function name
    header: str  # loop header block name

    #: ``(kind, why)`` as :func:`chunk_tier` reports it: a body that
    #: compiled is the loop nest it is; a refused loop has no entry.
    tier = ("structured", None)

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

#: What a fused value may be, and (loads aside, which must be lanes) all
#: a sliced loop's body may hold besides its store: one expression each.
_FUSIBLE = (insts.BinaryOp, insts.UnaryOp, insts.Compare, insts.Select,
            insts.Cast, insts.Load)

#: The fewest trips a loop runs as slices (:meth:`_Lowering._preheader`
#: has the crossover).
_SLICE_FLOOR = 48


def _constant_divisor(inst):
    """The non-zero int an INT ``div``/``rem`` divides by, or ``None``."""
    if (
        isinstance(inst, insts.BinaryOp) and inst.op in ("div", "rem")
        and inst.type == INT and isinstance(inst.rhs, Constant)
        and type(inst.rhs.value) is int and inst.rhs.value
    ):
        return inst.rhs.value
    return None


def _divided(op, dividend, divisor):
    """Python for INT ``dividend op divisor`` truncated toward zero like
    ``_trunc_div`` / ``_trunc_rem``, ``divisor`` a non-zero int: no call
    and no guard.  ``dividend`` is spelled twice, so it must be a name or
    a literal."""
    a, c = dividend, abs(divisor)
    if op == "rem":  # the sign follows the dividend, never the divisor
        return f"{a} % {c} if {a} >= 0 else -(-{a} % {c})"
    if divisor > 0:
        return f"{a} // {c} if {a} >= 0 else -(-{a} // {c})"
    return f"-({a} // {c}) if {a} >= 0 else -{a} // {c}"


def _literal(value):
    """A Python literal reproducing ``value`` exactly, or Unsupported."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise Unsupported("non-finite float constant")
        return repr(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    raise Unsupported(f"constant of type {type(value).__name__}")


def _critical_blocks(loop):
    """Names of ``loop``'s blocks in a ``critical``/``atomic`` annotation
    of its function."""
    names = {block.name for block in loop.blocks}
    return frozenset(
        name
        for annotation in loop.header.parent.annotations
        if annotation.lock_key is not None
        for name in annotation.block_names if name in names
    )


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


@dataclasses.dataclass
class _Scalar:
    """A scalar alloca the chunk keeps in a Python local."""

    alloca: object
    #: The store right behind the alloca (a counted loop's first value),
    #: or ``None``.
    init: object = None
    stores: list = dataclasses.field(default_factory=list)  # in the body

    def __post_init__(self):
        uid = self.alloca.uid
        self.value = f"_p{uid}"  # the local holding the slot's value
        self.storage = f"_s{uid}"  # the slot's list, once materialized


class _Lowering:
    """Lowers one loop; collects refs/bindings while emitting the body."""

    #: id(alloca) -> :class:`_Scalar` and id(load) -> the local it reads.
    #: Read-only on the class: every lowering that promotes binds its own,
    #: and one that forgot would raise instead of leaking into the next.
    promoted = types.MappingProxyType({})
    _alias = types.MappingProxyType({})
    #: id(alloca) -> the storage local of one a sequence runs in a loop
    #: but keeps in its slot, looked up once per activation.
    _cached = types.MappingProxyType({})
    #: :func:`_critical_blocks` of a chunk's loop; the whole-function
    #: lowerings run on one thread between regions and take no lock.
    _critical = frozenset()
    #: ``(name, expression)`` per value while a sliced loop's
    #: comprehension collects its clauses (:meth:`_emit_slices`).
    _clauses = None

    name = "_chunk"  # the generated function
    parameters = "interp, frame, iterations, locks"
    _body_indent = 4  # def _factory / def _chunk / try / for
    _blocks = 2  # the skeleton's own ``try`` and ``for``, of _MAX_BLOCKS

    def __init__(self, analyses, loop):
        if loop.canonical is None:
            raise Unsupported("loop lacks canonical form")
        self.loop = loop
        self.blocks = [b for b in loop.blocks if b is not loop.header]
        self.defined = {
            id(inst) for b in self.blocks for inst in b.instructions
        }
        self.promoted = {}
        self._alias = {}
        self._critical = _critical_blocks(loop)
        self._begin(analyses, [loop, *loop.descendants()])

    def _begin(self, analyses, loops):
        """The state every lowering starts from: ``analyses`` is the
        function's record, whose CFG, operand users and single-store
        locals the walk reads; ``loops`` the forest it follows (a
        chunk's: its loop and what nests in it)."""
        self.function = analyses.function
        self._successors = analyses.successors
        self.refs = []  # objects the factory receives positionally
        self._ref_names = {}  # id(obj) -> _k<i>
        self.live_ins = {}  # id(inst) -> (inst, is_pointer)
        self.args = {}  # index -> is_pointer
        self.globals = {}  # name -> local
        self._named = set()  # induction locals an affine form may name
        #: Name -> its constant interval where the walk is (the box of
        #: :mod:`repro.analysis.affine`), narrowed inside an ``if`` arm.
        self._box = {}
        self._forwarded = analyses.forward
        self._segment = None  # [line index, steps] of the open step count
        #: Blocks the walk has emitted -> the loop a returning arm had
        #: left for good when it did (``None``: no such arm).
        self._emitted = {}
        self._leaving = None  # that loop, while such an arm is walked
        self._elided = set()  # counted latches: steps only, no statements
        self._hoisted = set()  # ids lowered in a counted loop's preheader
        self._folded = set()  # ids of geps spelled inside their one use
        #: id(value) -> its expression, spelled inside its one use
        #: (``None`` until the value is lowered).
        self._fused = {}
        self._ipdom = {}  # region -> block -> immediate post-dominator
        #: id(value) -> the function's instructions using it, once per
        #: operand (the record's: a use outside the body counts too).
        self._uses = analyses.users
        self._headers = {inner.header: inner for inner in loops}
        self._innermost = {}  # block -> the smallest loop holding it
        for inner in sorted(
            loops, key=lambda inner: len(inner.blocks), reverse=True
        ):
            self._innermost.update(dict.fromkeys(inner.blocks, inner))

    @property
    def _inductions(self):
        """The induction allocas ``run_chunk`` seeds."""
        return (self.loop.canonical.induction,)

    # -- refs and operand rendering -----------------------------------------

    def ref(self, obj):
        name = self._ref_names.get(id(obj))
        if name is None:
            name = f"_k{len(self.refs)}"
            self._ref_names[id(obj)] = name
            self.refs.append(obj)
        return name

    def _register(self, inst):
        """The local name(s) for an instruction's value."""
        alias = self._alias.get(id(inst))
        if alias is not None:
            return alias
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
            fused = self._fused.get(id(value))
            return self._register(value) if fused is None else fused
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

    def _define(self, out, inst, expr):
        """``inst``'s value is ``expr``: a statement, a clause of the
        comprehension being collected, or — fused — spelled inside its
        one use, parenthesized whole so nothing re-associates."""
        if id(inst) in self._fused:
            self._fused[id(inst)] = (
                expr if expr.isidentifier() else f"({expr})"
            )
        elif self._clauses is not None:
            self._clauses.append((self._register(inst), expr))
        else:
            out.emit(f"{self._register(inst)} = {expr}")

    def _lower_promoted(self, out, inst, scalar):
        """An alloca, load or store of a scalar held in a local."""
        if isinstance(inst, insts.Alloca):
            # Re-executing an alloca keeps its storage and contents; only
            # the chunk's first execution reads the slot into the local.
            out.emit(f"if {scalar.storage} is None:")
            out.indent += 1
            self._slot_storage(out, inst, scalar.storage, "")
            out.emit(f"{scalar.value} = {scalar.storage}[0]")
            out.indent -= 1
        elif isinstance(inst, insts.Load):
            if id(inst) not in self._alias:
                self._define(out, inst, scalar.value)
        else:
            out.emit(f"{scalar.value} = {self.scalar(inst.value)}")

    def _slot_storage(self, out, alloca, storage, times):
        """``storage`` = ``alloca``'s list in ``frame.objects``, made (of
        zeros, ``times`` repeated) where the interpreter would make it."""
        key = self.ref(alloca)
        zero = _zero_literal(alloca.allocated_type)
        out.emit(f"{storage} = _objs.get({key})")
        out.emit(f"if {storage} is None:")
        out.indent += 1
        out.emit(f"{storage} = _objs[{key}] = [{zero}]{times}")
        out.indent -= 1

    def lower_instruction(self, out, inst):
        if isinstance(inst, (insts.Alloca, insts.Load, insts.Store)):
            slot = inst if isinstance(inst, insts.Alloca) else inst.pointer
            scalar = self.promoted.get(id(slot))
            if scalar is not None:
                return self._lower_promoted(out, inst, scalar)
        if isinstance(inst, insts.Alloca):
            times = f" * {inst.allocated_type.slots()}"
            name_s, _name_o = self._register(inst)
            cached = self._cached and self._cached.get(id(inst))
            if cached:
                # Assigned here, so a read before it stays unbound.
                out.emit(f"if {cached} is None:")
                out.indent += 1
                self._slot_storage(out, inst, cached, times)
                out.indent -= 1
                out.emit(f"{name_s} = {cached}")
            else:
                self._slot_storage(out, inst, name_s, times)
            out.emit(f"_r{inst.uid}_o = 0")
        elif isinstance(inst, insts.Load):
            if isinstance(inst.type, PointerType):
                raise Unsupported("load of a pointer value")
            storage, offset = self.pointer(inst.pointer)
            self._define(out, inst, f"{storage}[{offset}]")
        elif isinstance(inst, insts.Store):
            value = self.any_value(inst.value)
            storage, offset = self.pointer(inst.pointer)
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
            self._define(out, inst, f"{a} {op} {b}")
        elif isinstance(inst, insts.Select):
            if isinstance(inst.type, PointerType):
                raise Unsupported("select over pointers")
            condition = self.scalar(inst.condition)
            if_true = self.scalar(inst.if_true)
            if_false = self.scalar(inst.if_false)
            self._define(
                out, inst, f"({if_true}) if {condition} else ({if_false})"
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
            self._define(out, inst, expr)
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
        # The element lives in the base's storage, whose local is only
        # ever rebound to the same list.
        self._alias[id(inst)] = (storage, f"_r{inst.uid}_o")
        proven = self._proven_in_bounds(inst)
        if not proven:
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
        if proven and id(inst) in self._folded:
            self._alias[id(inst)] = (storage, combined)
            return
        name_s, name_o = self._register(inst)
        if name_s != storage:  # a chunk reads the base's storage local
            out.emit(f"{name_s} = {storage}")
        out.emit(f"{name_o} = {combined}")

    def _lower_binop(self, out, inst):
        a = self.scalar(inst.lhs)
        b = self.scalar(inst.rhs)
        op = inst.op
        divisor = _constant_divisor(inst)
        if op in _BINOP:
            self._define(out, inst, f"{a} {_BINOP[op]} {b}")
        elif divisor:
            self._define(out, inst, _divided(op, a, divisor))
        elif op == "div" and inst.type == INT:
            self._define(out, inst, f"_trunc_div({a}, {b})")
        elif op == "div":
            # A literal divisor other than 0 (``-0.0`` is 0) cannot raise.
            if not isinstance(inst.rhs, Constant) or inst.rhs.value == 0:
                out.emit(f"if {b} == 0:")
                out.indent += 1
                out.emit(
                    "raise _EmulationError('float division by zero')"
                )
                out.indent -= 1
            self._define(out, inst, f"{a} / {b}")
        elif op == "rem":
            self._define(out, inst, f"_trunc_rem({a}, {b})")
        elif op in ("shl", "shr") or (op == "pow" and inst.type == INT):
            # Guarded (a negative count or exponent is a math error);
            # only hand-written IR has these, so no prologue binding.
            self._define(
                out, inst, f"H.binary_function({op!r}, True)({a}, {b})"
            )
        elif op in ("min", "max", "pow"):
            # ``pow`` is the guarded one (runtime.GENERATED_GLOBALS).
            self._define(out, inst, f"{op}({a}, {b})")
        else:
            raise Unsupported(f"binop {op}")

    def _lower_unop(self, out, inst):
        value = self.scalar(inst.operand)
        if inst.op == "neg":
            self._define(out, inst, f"-{value}")
        elif inst.op == "abs":
            self._define(out, inst, f"abs({value})")
        elif inst.op in _UNOP_HELPERS:
            self._define(out, inst, f"{_UNOP_HELPERS[inst.op]}({value})")
        else:
            raise Unsupported(f"unop {inst.op}")

    # -- control flow --------------------------------------------------------------

    def _step_check(self, out, count):
        out.emit(f"_steps += {count}")
        out.emit("if _steps > _max:")
        out.indent += 1
        out.emit(f"raise _EmulationError({_MAX_STEPS_MESSAGE!r})")
        out.indent -= 1

    def _body_block(self):
        body = self.function.block(self.loop.canonical.body)
        if body is self.loop.header:
            raise Unsupported("canonical body is the header")
        return body

    def _open_segment(self, out, per=""):
        """Open a segment at ``out``'s next line; its count is written
        ``_steps += <total><per>``."""
        self._segment = [len(out.lines), 0, "    " * out.indent, per]
        self._step_check(out, 0)

    def _count(self, out, steps):
        """Count ``steps`` in the open segment's one ``max_steps`` check."""
        if self._segment is None:
            self._open_segment(out)
        self._segment[1] += steps
        index, total, indent, per = self._segment
        out.lines[index] = f"{indent}_steps += {total}{per}"

    def _split_count(self, out, block, call):
        """Move the steps ``block`` runs after ``call`` into a segment
        opened behind the call's statements."""
        rest = len(block.instructions) - block.instructions.index(call) - 1
        self._count(out, -rest)
        self._segment = None
        self._count(out, rest)

    def _lower_statement(self, out, block, inst):
        try:
            self.lower_instruction(out, inst)
        except Unsupported as refusal:
            raise Unsupported(f"{block.name} {inst!r}: {refusal}") from None

    def _lower_block(self, out, block):
        """Count and lower ``block``'s statements; returns its terminator
        (``None`` when the block falls off its end)."""
        if not block.instructions:
            raise Unsupported(f"empty block {block.name}")
        self._count(out, len(block.instructions))
        for inst in block.instructions:
            if isinstance(inst, insts.Terminator):
                if inst is not block.instructions[-1]:
                    raise Unsupported(
                        f"{block.name}: terminator before end of block"
                    )
                return inst
            if id(inst) not in self._hoisted:
                self._lower_statement(out, block, inst)
            if isinstance(inst, insts.Call):
                # The callee counts on from exactly here; what is left
                # of the block is counted once it returns.
                self._split_count(out, block, inst)
        return None

    # -- critical sections ----------------------------------------------------------

    def _transits(self, source, target):
        """Whether ``run_chunk``'s transition on ``source -> target`` may
        move a lock: the edge enters or leaves a critical block.  An edge
        to the chunk's header releases at the iteration's end instead."""
        critical = self._critical
        return (
            (source.name in critical or target.name in critical)
            and target is not self.loop.header
        )

    def _transition(self, out, source, target):
        """``run_chunk``'s lock hand-over on ``source -> target``."""
        if self._transits(source, target):
            out.emit(
                f"locks.transition(_held, {self.ref(source)}, "
                f"{self.ref(target)})"
            )

    # -- loop events: where a profiled lowering counts (no-ops here) ------------

    def _enter_loop(self, out, loop, scalar):
        """Before the Python loop: ``scalar`` is a counted loop's
        induction (``None``: a ``while``)."""

    def _close_iteration(self, out, loop):
        """At the bottom of its body."""

    def _exit_loop(self, out, loop, returning=False):
        """Behind it — or, ``returning``, where an arm leaves it to
        ``return`` partway through an iteration."""

    def _leave(self, out, region):
        """Exit every loop from ``region`` outwards: control leaves them
        all to ``return``."""
        while region is not None:
            self._exit_loop(out, region, True)
            region = region.parent

    # -- control flow: the structured walk -------------------------------------

    def _promote(self):
        """Choose the scalars held in locals and the loads that read them.

        Promotable: the induction allocas ``run_chunk`` seeds and every
        scalar alloca executed in the body, when each use in the body is
        a load from it or a store *to* it (the record's operand users).
        """
        candidates = {
            id(alloca): _Scalar(alloca)
            for alloca in self._inductions
        }
        for block in self.blocks:
            for index, inst in enumerate(block.instructions):
                kind = isinstance(inst, insts.Alloca) and inst.allocated_type
                if (
                    kind and kind.slots() == 1
                    and not hasattr(kind, "element")
                    and not isinstance(kind, PointerType)
                ):
                    scalar = candidates[id(inst)] = _Scalar(inst)
                    for behind in block.instructions[index + 1:index + 2]:
                        if (
                            isinstance(behind, insts.Store)
                            and behind.pointer is inst
                        ):
                            scalar.init = behind
        body = set(self.blocks)
        escaped = set()
        for key, scalar in candidates.items():
            for user in self._uses.get(key, ()):
                if user.parent not in body:
                    continue
                if isinstance(user, insts.Store) and (
                    user.operands[0] is not scalar.alloca
                ):
                    scalar.stores.append(user)
                elif not isinstance(user, insts.Load):
                    escaped.add(key)
        for alloca in self._inductions:
            if id(alloca) in escaped:
                raise _refused(
                    self._body_block(),
                    f"the address of induction storage {alloca!r} escapes",
                )
        self.promoted = {
            key: scalar for key, scalar in candidates.items()
            if key not in escaped
        }

    def _used_once(self, value):
        return len(self._uses.get(id(value), ())) == 1

    def _alias_loads(self, scalar, blocks):
        """Loads of ``scalar`` in ``blocks`` read its local directly.

        Sound where no store to it can run between such a load and the
        uses of the load's value: the caller has shown the only store in
        reach sits in a latch outside ``blocks``, behind that latch's
        own uses, and a load whose value is used outside ``blocks`` (a
        stale register the verifier does not forbid) keeps its copy.
        """
        inside = set(blocks)
        for block in blocks:
            for inst in block.instructions:
                if (
                    isinstance(inst, insts.Load)
                    and inst.pointer is scalar.alloca
                    and all(
                        user.parent in inside
                        for user in self._uses.get(id(inst), ())
                    )
                ):
                    self._alias[id(inst)] = scalar.value

    def _latch_step(self, latch, scalar):
        """``(step, store)`` when ``latch`` is exactly ``v = v + step``."""
        if len(latch.instructions) != 4:
            return None
        load, add, store, jump = latch.instructions
        if (
            isinstance(load, insts.Load)
            and load.pointer is scalar.alloca
            and isinstance(add, insts.BinaryOp) and add.op == "add"
            and add.lhs is load
            and isinstance(add.rhs, Constant)
            and type(add.rhs.value) is int
            and isinstance(store, insts.Store)
            and store.value is add and store.pointer is scalar.alloca
            and isinstance(jump, insts.Jump)
            and self._used_once(load) and self._used_once(add)
        ):
            return add.rhs.value, store
        return None

    def _bind_inductions(self):
        """Alias and name the chunk's induction loads; box their range."""
        loop = self.loop
        for alloca in self._inductions:
            scalar = self.promoted[id(alloca)]
            readers = self.blocks
            if scalar.stores:
                # Only the chunk loop's own ``v = v + step`` latch may.
                stepped = (
                    alloca is loop.canonical.induction
                    and len(loop.latches) == 1
                    and self._latch_step(loop.latches[0], scalar)
                )
                if not stepped or scalar.stores != [stepped[1]]:
                    continue
                readers = [b for b in readers if b is not loop.latches[0]]
            self._alias_loads(scalar, readers)
            self._named.add(scalar.value)
            # Every partition is a subset of the canonical range.
            space = iteration_range(loop)
            if space:
                self._box[scalar.value] = (space[0], space[-1])

    def _nest(self, out, block, blocks=0):
        """Refuse to open one more level (holding ``blocks`` more nested
        blocks) at ``block`` where CPython would refuse the source."""
        if (
            self._blocks + blocks > _MAX_BLOCKS
            or out.indent > _MAX_INDENT
        ):
            raise _refused(block, "nested deeper than CPython compiles")

    def _owner(self, block):
        """The loop whose body ``block`` is a statement of: its innermost
        loop, for a header the loop around its own; ``None``: the
        function itself."""
        inner = self._headers.get(block)
        if inner is not None:
            return inner.parent
        return self._innermost.get(block)

    def _join(self, block, region):
        """Where the arms of ``block``'s branch meet again, or ``None``.

        Post-dominators of ``region``'s own statements: a nested loop is
        one node that continues at its header's exit, an edge that
        leaves ``region`` is no edge (what it leads to never comes
        back), and the sink is the next iteration — for the function,
        :data:`_RETURNED`, where every ``return`` goes.
        """
        ipdom = self._ipdom.get(region)
        if ipdom is None:
            sink = _RETURNED if region is None else region.header
            blocks = self.function.blocks if region is None \
                else region.blocks
            into = {
                node: [] for node in blocks if self._owner(node) is region
            }
            sources = list(into)
            into[sink] = []
            for source in sources:
                inner = self._headers.get(source)
                if inner is not None:
                    targets = [
                        target for target in self._successors[source]
                        if target not in inner.blocks
                    ]
                elif isinstance(source.terminator, insts.Return):
                    targets = [sink]
                else:
                    targets = self._successors[source]
                for target in targets:
                    if target in into:
                        into[target].append(source)
            ipdom = self._ipdom[region] = immediate_dominators(sink, into)
        return ipdom.get(block)

    def _walk(self, out, block, follow, region):
        """Emit from ``block`` until control reaches ``follow``.

        ``region`` is the innermost loop being emitted (``None``: the
        function).  Every block is a statement of exactly one region and
        is emitted once, there; a path that meets a block any other way
        is not a nest of loops and diamonds.
        """
        while block is not follow:
            if block in self._emitted or self._owner(block) is not region:
                left = self._leaving or self._emitted.get(block)
                if left is not None:
                    raise _refused(
                        left.header,
                        "loop is left from a block other than its header",
                    )
                raise _refused(
                    block, "reached around the loop nest's structure"
                )
            inner = self._headers.get(block)
            if inner is not None:
                block = self._emit_loop(out, inner)
                continue
            self._emitted[block] = self._leaving
            terminator = self._emit_straight(out, block)
            if isinstance(terminator, insts.Jump):
                self._transition(out, block, terminator.target)
                block = terminator.target
            elif isinstance(terminator, insts.Branch):
                block = self._emit_if(out, block, terminator, region)
            else:
                # A return: only a sequence walks one (no block of a loop
                # body ends in one), and it lowers it.
                self._leave(out, region)
                self.lower_terminator(out, terminator)
                self._segment = None
                return

    def _emit_straight(self, out, block):
        """One block inside the open segment; returns its terminator."""
        if block in self._elided:
            self._count(out, len(block.instructions))
            return block.terminator
        terminator = self._lower_block(out, block)
        if terminator is None:
            raise _refused(block, "block does not end in a terminator")
        return terminator

    def _emit_if(self, out, block, branch, region):
        """``if``/``else`` up to the arms' join; returns the join."""
        join = self._join(block, region)
        if join is None:
            raise _refused(block, "the branch's arms never rejoin")
        self._nest(out, block)
        condition = self.scalar(branch.condition)
        arms = [
            (test, target)
            for test, target in (
                (condition, branch.if_true),
                (f"not {condition}", branch.if_false),
            )
            if target is not join or self._transits(block, join)
        ]
        if join is _RETURNED:
            # Both arms return: the second needs no ``else``.
            join = arms.pop()[1]
        box = self._box
        for position, (test, target) in enumerate(arms):
            out.emit("else:" if position else f"if {test}:")
            out.indent += 1
            if test is condition:
                self._box = arm_box(box, branch.condition, self._form)
            self._segment = None
            self._transition(out, block, target)
            if region is None or target in region.blocks:
                self._walk(out, target, join, region)
            else:
                self._emit_tail(out, target, region)
            out.indent -= 1
            self._box = box
        self._segment = None
        return join

    def _emit_tail(self, out, target, region):
        """An arm that leaves ``region`` from inside its body.  A chunk's
        may not: every iteration ends at the header."""
        raise _refused(
            region.header, "loop is left from a block other than its header"
        )

    def _emit_loop(self, out, inner):
        """A nested natural loop as a Python loop; returns its exit block."""
        header = inner.header
        branch = header.terminator
        inside = [
            target for target in self._successors[header]
            if target in inner.blocks
        ]
        if not isinstance(branch, insts.Branch) or len(inside) != 1:
            raise _refused(header, "loop has no exit through its header")
        inside = inside[0]
        stays = inside is branch.if_true
        self._nest(out, header, 1)
        self._blocks += 1
        self._emitted[header] = self._leaving
        self._segment = None
        counted = stays and self._counted(inner)
        self._enter_loop(out, inner, counted[0] if counted else None)
        sliced = False
        if counted:
            scalar, upper = counted
            if not any(  # a lock transition in every iteration
                block.name in self._critical for block in inner.blocks
            ):
                sliced = self._preheader(out, inner, inside, scalar, upper)
        if sliced:  # the preheader ran every iteration
            self._emitted.update(dict.fromkeys(inner.blocks, self._leaving))
        else:
            if counted:
                out.emit(
                    f"for {scalar.value} in range({scalar.value}, {upper}):"
                )
                out.indent += 1
                self._count(out, len(header.instructions))
                self._transition(out, header, inside)
            else:
                out.emit("while True:")
                out.indent += 1
                self._emit_straight(out, header)
                condition = self.scalar(branch.condition)
                out.emit(f"if {'not ' if stays else ''}{condition}:")
                out.indent += 1
                out.emit("break")
                out.indent -= 1
                self._segment = None
                self._transition(out, header, inside)
            self._walk(out, inside, header, inner)
            self._close_iteration(out, inner)
            out.indent -= 1
        self._segment = None
        if counted:
            # range() leaves the last value it produced; the IR leaves
            # the first one that failed the test.
            out.emit(f"if {scalar.value} < {upper}:")
            out.indent += 1
            out.emit(f"{scalar.value} = {upper}")
            out.indent -= 1
            self._count(out, len(header.instructions))  # the failing test
        exit_block = branch.if_false if stays else branch.if_true
        self._transition(out, header, exit_block)
        self._exit_loop(out, inner)
        self._blocks -= 1
        return exit_block

    def _counted(self, inner):
        """``(scalar, upper)`` when ``inner`` is ``for v in
        range(v, upper)``; marks its latch elided and aliases ``v``.

        The header is exactly ``load v; v < upper; branch`` with
        ``upper`` computed outside the loop, the single latch exactly
        ``v = v + 1``, nothing else in the body stores ``v`` but the
        store behind its alloca, and none of those values is used
        elsewhere — so neither block needs statements.
        """
        header = inner.header
        if len(header.instructions) != 3 or len(inner.latches) != 1:
            return None
        load, compare, branch = header.instructions
        latch = inner.latches[0]
        scalar = isinstance(load, insts.Load) and self.promoted.get(
            id(load.pointer)
        )
        if not (
            scalar and scalar.init is not None
            and isinstance(compare, insts.Compare)
            and compare.predicate == "lt" and compare.lhs is load
            and branch.condition is compare
            and self._used_once(load) and self._used_once(compare)
            and latch is not header
        ):
            return None
        upper = compare.rhs
        if isinstance(upper, insts.Instruction) and (
            upper.parent in inner.blocks
        ):
            return None
        stepped = self._latch_step(latch, scalar)
        if stepped is None or stepped[0] != 1 or not (
            len(scalar.stores) == 2 and scalar.init in scalar.stores
            and stepped[1] in scalar.stores
        ):
            return None
        # v only ever holds init + k below the bound: [init, upper - 1].
        first = affine_form(scalar.init.value, self._leaf, self._forward)
        bound = affine_form(upper, self._leaf, self._forward)
        if first is not None and bound is not None:
            self._named.add(scalar.value)
            self._box[scalar.value] = (
                first.bound(self._box, False), bound.bound(self._box, True) - 1
            )
        self._elided.add(latch)
        self._alias_loads(
            scalar, [b for b in inner.blocks if b is not latch]
        )
        return scalar, self.scalar(upper)

    # -- an innermost counted loop's preheader ---------------------------------

    def _preheader(self, out, inner, block, scalar, upper):
        """Rewrite a counted loop whose body, from ``block`` to its latch,
        is one straight segment (the module docstring's array tier);
        returns whether that emitted the whole loop (sliced).  Any other
        shape keeps the per-iteration segment.

        Each rewrite alone against none, ``benchmarks/e2e`` ``run-dense``
        ``op_rel`` medians over 10 alternating pairs on a 2-vCPU x86 box
        (the workload pinned to one core), every pair won: charge once
        4.87 -> 4.52, hoist 4.88 -> 3.76, fold 4.89 -> 4.73; all three
        4.89 -> 3.25.  Then against those three: inline constant
        divisors 3.22 -> 2.80, fuse 3.22 -> 2.82, invariant loads 3.23
        -> 3.12, slices 3.22 -> 2.92; all four 3.23 -> 1.85.

        Slices pay from about 48 trips: per-row time sliced / fused, the
        dense chunks on the same box, one core.  The init loop's ``for t
        in [e]`` clause and the mat-vec's ``for`` keep per-trip work the
        slices do not remove, so the floor is where every shape breaks
        even::

            trips     8     16    24    32    40    48    64    96
            init     1.24  1.17  1.13  1.04  1.03  1.01  0.97  0.98
            stencil  1.75  1.34  1.02  1.02  0.82  0.80  0.73  0.69
            mat-vec  1.46  1.30  1.18  1.10  1.03  0.95  0.92  0.89
            axpy     1.47  1.32  1.06  0.97  0.89  0.85  0.82  0.78
        """
        chain = []
        while block is not inner.latches[0]:
            if (
                block in self._headers or block not in inner.blocks
                or not isinstance(block.terminator, insts.Jump)
            ):
                return False
            chain.append(block)
            block = block.terminator.target
        if len(chain) + 2 != len(inner.blocks):
            return False
        statements = [
            (block, inst)
            for block in chain for inst in block.instructions[:-1]
        ]
        once = all(self._cannot_raise(inst) for _block, inst in statements)
        stores = [
            inst for _block, inst in statements
            if isinstance(inst, insts.Store)
            and id(inst.pointer) not in self.promoted
        ]
        hoisted = []
        for block, inst in statements:
            if self._hoistable(inst, inner, stores if once else None):
                self._hoisted.add(id(inst))
                hoisted.append((block, inst))
        for block in chain:
            for index, inst in enumerate(block.instructions):
                if (
                    isinstance(inst, insts.GetElementPtr)
                    and id(inst) not in self._hoisted
                    and self._used_once(inst)
                    and any(
                        isinstance(user, (insts.Load, insts.Store))
                        and user.pointer is inst
                        for user in block.instructions[index + 1:]
                    )
                ):
                    self._folded.add(id(inst))
        sliced = None
        if once:
            self._fuse(statements)
            sliced = self._slices(inner, scalar, statements, stores)
            out.emit(f"if {scalar.value} < {upper}:")
            out.indent += 1
            self._open_segment(out, f" * ({upper} - {scalar.value})")
        for block, inst in hoisted:
            self._lower_statement(out, block, inst)
        if sliced:
            self._count(out, sum(len(b.instructions) for b in inner.blocks))
            self._emit_slices(out, scalar, upper, statements, *sliced)
        if once:
            out.indent -= 1
        return sliced is not None

    def _cannot_raise(self, inst):
        """Whether ``inst`` has no guard, no call and no output, so every
        step of the loop may be charged before it runs."""
        if isinstance(inst, insts.GetElementPtr):
            return self._proven_in_bounds(inst)
        if isinstance(inst, insts.BinaryOp):
            return (
                inst.op in _BINOP or inst.op in ("min", "max")
                or _constant_divisor(inst) is not None
            )
        if isinstance(inst, insts.UnaryOp):
            return inst.op in ("neg", "abs", "not")
        if isinstance(inst, insts.Cast):
            # ``float_to_int`` is guarded; ``float`` of an int past
            # 2 ** 1024 overflows, of a remainder by a constant never.
            return inst.kind == "bool_to_int" or (
                inst.kind == "int_to_float"
                and _constant_divisor(inst.operand) is not None
                and inst.operand.op == "rem"
            )
        return isinstance(inst, (
            insts.Alloca, insts.Load, insts.Store, insts.Compare,
            insts.Select,
        ))

    def _hoistable(self, inst, inner, stores):
        """Whether ``inst``'s value is the same in every iteration of
        ``inner`` and read nowhere else: a read of a promoted scalar
        ``inner`` never stores, ``add``/``sub``/``mul`` and a proven gep
        over invariants, and — given ``stores``, the memory stores of a
        once-charged loop — a load from an invariant address whose root
        is :meth:`_distinct` from every stored one."""
        if any(
            user.parent not in inner.blocks
            for user in self._uses.get(id(inst), ())
        ):
            return False
        if isinstance(inst, insts.Load):
            scalar = self.promoted.get(id(inst.pointer))
            if scalar is not None:
                return not self._stored_in(scalar, inner)
            if stores is None or not self._invariant(inst.operands, inner):
                return False
            roots = (
                gep_offset(each.pointer, self._leaf, self.defined)[0]
                for each in (inst, *stores)
            )
            root = next(roots)
            return all(self._distinct(root, other) for other in roots)
        arithmetic = isinstance(inst, insts.BinaryOp) and (
            inst.op in ("add", "sub", "mul")
        )
        if not arithmetic and not isinstance(inst, insts.GetElementPtr):
            return False
        if not self._invariant(inst.operands, inner):
            return False
        return arithmetic or self._proven_in_bounds(inst)

    def _invariant(self, values, inner):
        """Whether each of ``values`` comes from outside ``inner`` or is
        hoisted."""
        return all(
            not isinstance(value, insts.Instruction)
            or value.parent not in inner.blocks
            or id(value) in self._hoisted
            for value in values
        )

    @staticmethod
    def _stored_in(scalar, inner):
        """Whether running ``inner`` can change ``scalar``'s local."""
        return scalar.alloca.parent in inner.blocks or any(
            store.parent in inner.blocks for store in scalar.stores
        )

    def _fuse(self, statements):
        """Mark each value whose one use is a later one of ``statements``
        to be spelled inside that use: a load only with no store between
        the two, and never as a dividend :func:`_divided` spells twice."""
        at = {id(inst): index for index, (_b, inst) in enumerate(statements)}
        stores = [
            index for index, (_block, inst) in enumerate(statements)
            if isinstance(inst, insts.Store)
        ]
        for index, (_block, inst) in enumerate(statements):
            users = self._uses.get(id(inst), ())
            if (
                len(users) != 1 or not isinstance(inst, _FUSIBLE)
                or isinstance(inst.type, PointerType)
                or id(inst) in self._hoisted or id(inst) in self._alias
            ):
                continue
            (user,) = users
            use = at.get(id(user))
            if (
                use is None or id(user) in self._hoisted
                or _constant_divisor(user) and user.lhs is inst
                or isinstance(inst, insts.Load)
                and any(index < store < use for store in stores)
            ):
                continue
            self._fused[id(inst)] = None

    # -- slices: a loop that carries no dependence -----------------------------

    def _slices(self, inner, scalar, statements, stores):
        """``(lanes, store)`` when ``inner`` may run over zipped slices.

        Its trip count is a constant at or above :data:`_SLICE_FLOOR`,
        and every load and store the body keeps is a *lane* ``S[base +
        v]`` (:meth:`_lane`).  The one memory store, the body's last
        statement, makes a comprehension; a promoted scalar the body
        stores and no memory store make a ``for`` over the lanes (``store
        is None``).  Reading every lane first is exact when the loop
        carries no memory dependence: each root other than the stored
        one is :meth:`_distinct` from it, and the stored root is read
        only at the slot it stores, before the store.  ``None``: keep
        the loop.
        """
        space = iteration_range(inner)
        if space is None or len(space) < _SLICE_FLOOR:
            return None
        lanes, kept, carried = [], [], False
        for _block, inst in statements:
            if id(inst) in self._hoisted:
                continue
            kept.append(inst)
            if any(
                user.parent not in inner.blocks
                for user in self._uses.get(id(inst), ())
            ):
                return None  # read behind the loop: one value, not a lane
            memory = isinstance(inst, (insts.Load, insts.Store))
            if memory and id(inst.pointer) in self.promoted:
                carried = carried or isinstance(inst, insts.Store)
            elif memory:
                if not self._lane(inst.pointer, inner, scalar):
                    return None
                if isinstance(inst, insts.Load):
                    lanes.append(inst)
                elif isinstance(inst.value.type, PointerType):
                    return None
            elif isinstance(inst, insts.GetElementPtr):
                if not all(
                    isinstance(user, (insts.Load, insts.Store))
                    and user.pointer is inst
                    for user in self._uses.get(id(inst), ())
                ):
                    return None
            elif not isinstance(inst, _FUSIBLE):
                return None
        if carried:
            return (lanes, None) if lanes and not stores else None
        if len(stores) != 1 or kept[-1] is not stores[0]:
            return None
        root, slot = gep_offset(
            stores[0].pointer, self._leaf, self.defined
        )
        for _block, inst in statements:
            if (
                isinstance(inst, insts.Load)
                and id(inst.pointer) not in self.promoted
            ):
                other, offset = gep_offset(
                    inst.pointer, self._leaf, self.defined
                )
                if (
                    slot is None or offset != slot if other is root
                    else not self._distinct(other, root)
                ):
                    return None
        return lanes, stores[0]

    def _distinct(self, root, other):
        """Whether two roots are different storages: two different
        globals or allocas of the body.  A pointer register, an argument
        or an alloca from outside the body may hold any of them."""
        return root is not other and all(
            isinstance(each, GlobalVariable)
            or isinstance(each, insts.Alloca) and id(each) in self.defined
            for each in (root, other)
        )

    def _lane(self, pointer, inner, scalar):
        """Whether ``pointer`` is ``S[base + v]`` for ``inner``'s ``v``: a
        gep of its body over an invariant pointer, the stride 1, the
        index affine with coefficient 1 on ``v``."""
        if not (
            isinstance(pointer, insts.GetElementPtr)
            and pointer.parent in inner.blocks
            and id(pointer) not in self._hoisted
            and self._invariant([pointer.pointer], inner)
            and pointer.pointer.type.pointee.element.slots() == 1
        ):
            return False
        form = affine_form(pointer.index, self._leaf)
        return form is not None and form.coefficient(scalar.value) == 1

    def _span(self, pointer, scalar, upper):
        """A lane's slice ``S[base + v:base + upper]``."""
        storage, offset = self.pointer(pointer.pointer)
        form = affine_form(pointer.index, self._leaf)
        base = {} if offset == "0" else {offset: 1}
        base.update(
            (name, factor) for name, factor in form.coefficients.items()
            if name != scalar.value
        )
        if not form.constant and not base:
            return f"{storage}[{scalar.value}:{upper}]"
        base = self._spelled(AffineExpr(form.constant, base))
        return f"{storage}[{base} + {scalar.value}:{base} + {upper}]"

    @staticmethod
    def _spelled(form):
        """An affine ``form`` as a Python expression."""
        parts = [
            name if factor == 1 else f"{factor} * {name}"
            for name, factor in form.coefficients.items()
        ]
        if form.constant or not parts:
            parts.append(str(form.constant))
        return " + ".join(parts).replace("+ -", "- ")

    def _emit_slices(self, out, scalar, upper, statements, lanes, store):
        """The loop as slices: every lane read whole, then the store's
        comprehension — or, without one, a ``for`` over the zipped lanes
        that carries its scalars."""
        zipped = []
        for load in lanes:
            local = f"_l{load.uid}"
            self._alias[id(load)] = local
            zipped.append((local, self._span(load.pointer, scalar, upper)))
        skipped = {id(inst) for inst in lanes} | {id(store)} | self._hoisted
        body = [
            (block, inst) for block, inst in statements
            if id(inst) not in skipped
            and not isinstance(inst, insts.GetElementPtr)
        ]
        if store is None:
            at = len(out.lines)
            out.emit()  # the ``for`` line, once the body says what it reads
            out.indent += 1
            for block, inst in body:
                self._lower_statement(out, block, inst)
            out.indent -= 1
            targets, source = self._zipped(
                zipped, scalar, upper, "\n".join(out.lines[at + 1:])
            )
            out.lines[at] = "    " * out.indent + (
                f"for {targets} in {source}:"
            )
            return
        self._clauses = []
        for block, inst in body:
            self._lower_statement(out, block, inst)
        element = self.scalar(store.value)
        clauses = "".join(
            f" for {name} in [{expr}]" for name, expr in self._clauses
        )
        self._clauses = None
        targets, source = self._zipped(
            zipped, scalar, upper, element + clauses
        )
        out.emit(
            f"{self._span(store.pointer, scalar, upper)} = "
            f"[{element} for {targets} in {source}{clauses}]"
        )

    @staticmethod
    def _zipped(lanes, scalar, upper, body):
        """``(targets, iterable)`` over ``lanes``; ``v`` itself leads
        when ``body`` reads it, or when nothing else counts the trips."""
        if not lanes or re.search(rf"\b{scalar.value}\b", body):
            lanes = [(scalar.value, f"range({scalar.value}, {upper})"),
                     *lanes]
        targets = ", ".join(local for local, _span in lanes)
        if len(lanes) == 1:
            return targets, lanes[0][1]
        spans = ", ".join(span for _local, span in lanes)
        return targets, f"zip({spans})"

    # -- the bounds proof ------------------------------------------------------

    def _leaf(self, value):
        """The local naming ``value`` in an affine form, or ``None``: an
        induction alias whose interval has a form, or a chunk invariant
        (an int argument, a live-in register)."""
        if isinstance(value, Argument):
            return self.scalar(value) if value.type == INT else None
        if not isinstance(value, insts.Instruction) or value.type != INT:
            return None
        alias = self._alias.get(id(value))
        if alias is not None:
            return alias if alias in self._named else None
        if id(value) not in self.defined:
            return self.scalar(value)
        return None

    def _forward(self, load):
        """The store a load forwards to, when it is in the lowered body
        (its value is then bound where the load reads)."""
        store = self._forwarded(load)
        return store if store and id(store) in self.defined else None

    def _form(self, value):
        """``value``'s form for a proof that spells nothing: an int load
        the walk cannot read through is a name of its own."""
        return affine_form(value, self._proof_leaf, self._forward)

    def _proof_leaf(self, value):
        name = self._leaf(value)
        if name is None and isinstance(value, insts.Load) and (
            value.type == INT and not self._forward(value)
        ):
            return value
        return name

    def _proven_in_bounds(self, inst):
        """Whether ``inst``'s index is in bounds wherever it runs, so its
        guard can go: its affine form's bounds over the box lie inside
        the array (a constant out of bounds raises where, and if, it
        runs)."""
        form = self._form(inst.index)
        count = inst.pointer.type.pointee.count
        return form is not None and 0 <= form.bound(self._box, False) and (
            form.bound(self._box, True) < count
        )

    # -- whole-body assembly ----------------------------------------------------

    def _entry_bindings(self, out):
        """Emit the eager entry bindings (inside the Bailout try)."""
        for alloca in self._inductions:
            key = self.ref(alloca)
            scalar = self.promoted[id(alloca)]
            out.emit(f"{scalar.storage} = _objs[{key}]")
            if id(alloca) in self._uses:
                # The interpreter reads the slot through this register.
                out.emit(f"_iv_s, _iv_o = frame.registers[{key}]")
                out.emit(f"if _iv_s is not {scalar.storage} or _iv_o:")
                out.indent += 1
                out.emit("raise _Bailout()")
                out.indent -= 1
            out.emit(f"{scalar.value} = {scalar.storage}[0]")
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
        if not out.lines:
            out.emit("pass")

    def _factory_bindings(self, out):
        """Extra names bound once per exec, outside the function."""

    def _prologue(self, out):
        """Extra locals initialized per call, before the entry bindings."""

    def _lower_body(self, out):
        """Walk the body: one iteration, from the canonical body block
        round to the header."""
        self._promote()
        self._bind_inductions()
        self._walk(out, self._body_block(), self.loop.header, self.loop)
        if any(latch.name in self._critical for latch in self.loop.latches):
            out.emit("locks.release_all(_held)")

    def lower(self):
        """The generated source: one skeleton for every lowering — the
        factory's bindings, the function's prologue, the entry section
        behind its Bailout ``try``, then the walked body."""
        # The body and entry sections are emitted first so ref
        # collection completes before the unpack line is written.
        body = _Emitter()
        body.indent = self._body_indent
        self._lower_body(body)
        entry = _Emitter()
        entry.indent = 3  # def _factory / def <name> / try
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
        self._factory_bindings(out)
        out.emit(f"def {self.name}({self.parameters}):")
        out.indent += 1
        out.emit("_objs = frame.objects")
        out.emit("_out = interp.output")
        out.emit("_max = interp.max_steps")
        out.emit("_steps = interp.steps")
        self._prologue(out)
        out.emit("try:")
        out.lines.extend(entry.lines)
        out.emit("except (KeyError, IndexError, TypeError, ValueError):")
        out.indent += 1
        out.emit("raise _Bailout() from None")
        out.indent -= 1
        self._emit_body(out, body)
        out.indent -= 1
        out.emit(f"return {self.name}")
        return out.source()

    def _emit_body(self, out, body):
        """The chunk loop over locals, written back however it ends."""
        # The inductions were materialized at entry; the rest are when
        # (and if) their alloca first runs.
        seeded = [self.promoted[id(a)] for a in self._inductions]
        local = [
            scalar for scalar in self.promoted.values()
            if scalar.alloca not in self._inductions
        ]
        for scalar in local:
            out.emit(f"{scalar.storage} = None")
        if self._critical:
            out.emit("_held = set()")
        out.emit("try:")
        out.indent += 1
        targets = ", ".join(scalar.value for scalar in seeded)
        out.emit(f"for {targets} in iterations:")
        out.lines.extend(body.lines)
        out.indent -= 1
        out.emit("finally:")
        out.indent += 1
        if self._critical:
            # A worker dying inside a critical section releases its lock.
            out.emit("locks.release_all(_held)")
        for scalar in seeded:
            out.emit(f"{scalar.storage}[0] = {scalar.value}")
        self._write_back(out, local)
        out.indent -= 1
        out.emit("interp.steps = _steps")

    @staticmethod
    def _write_back(out, scalars):
        """Each of ``scalars`` whose alloca ran back into its slot."""
        for scalar in scalars:
            out.emit(f"if {scalar.storage} is not None:")
            out.indent += 1
            out.emit(f"{scalar.storage}[0] = {scalar.value}")
            out.indent -= 1


def lower_chunk(analyses, loop):
    """Generate (source, refs) for one loop of the function whose record
    is ``analyses``; raises :class:`Unsupported`.

    Lowering the body *collects* the entry bindings (live-ins, args,
    globals, refs), so the body is emitted first and spliced into the
    chunk skeleton by :meth:`_Lowering.lower`.
    """
    lowering = _Lowering(analyses, loop)
    return lowering.lower(), lowering.refs


def chunk_tier(analyses, loop, entry):
    """``(kind, why)`` for a loop of the record's function and its cached
    entry: ``structured``, or — ``None``, the loop runs interpreted —
    ``refused`` with the block (and instruction) that refused it."""
    if entry is not None:
        return entry.tier
    try:
        lower_chunk(analyses, loop)
    except Unsupported as refusal:
        return "refused", str(refusal)
    except Exception as error:  # a codegen bug: also a fallback, say so
        return "refused", f"{type(error).__name__}: {error}"
    return "refused", "generated source failed to compile"


def _exec_factory(source, refs, label):
    """``exec``-compile lowered source and bind its factory to ``refs``:
    the generated function, its code named ``<repro-codegen label>``."""
    namespace = dict(_runtime.GENERATED_GLOBALS)
    code = compile(source, f"<repro-codegen {label}>", "exec")
    exec(code, namespace)  # noqa: S102
    return namespace["_factory"](tuple(refs), _runtime)


def compile_chunk(analyses, loop):
    """Lower and ``exec``-compile one loop's chunk body."""
    source, refs = lower_chunk(analyses, loop)
    function, header = loop.header.parent.name, loop.header.name
    return CompiledChunk(
        fn=_exec_factory(source, refs, f"{function}:{header}"),
        source=source,
        function=function,
        header=header,
    )
