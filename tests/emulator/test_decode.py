"""Decoded blocks: same values, same error texts, nothing left on the IR.

The interpreter decodes a block into closures the first time it runs it
(:func:`repro.emulator.interp.decode_block`).  The expected values and
texts below were taken from the handler-table interpreter this replaced;
each operation runs once per operand shape (register / constant /
global / argument), since the decoder resolves those to different
closures: inline reads, or :func:`~repro.emulator.interp.operand_getter`
calls for what no op reads inline.
"""

import gc
import itertools
import math
import pickle
import sys

import pytest

from repro.emulator.interp import Interpreter, run_module
from repro.emulator.interp import _Frame, decode_block
from repro.frontend import compile_source
from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.types import BOOL, FLOAT, INT, ArrayType, PointerType
from repro.ir.values import Constant
from repro.runtime.payload import module_codec
from repro.util.errors import EmulationError
from support.plans import run_source_plan

_TYPES = {bool: BOOL, int: INT, float: FLOAT}


def _main():
    module = Module("decode")
    function = module.create_function("main")
    return module, IRBuilder(function.create_block("entry"))


def _operand(builder, value, shape):
    constant = Constant(_TYPES[type(value)], value)
    if shape == "constant":
        return constant
    slot = builder.alloca(constant.type)
    builder.store(constant, slot)
    return builder.load(slot)


def _outcome(module):
    """The one printed value, or the error's text."""
    try:
        ((_label, (value,)),) = run_module(module).output
    except EmulationError as error:
        return str(error)
    return value


def _evaluate(emit, values, shapes):
    module, builder = _main()
    operands = [
        _operand(builder, value, shape)
        for value, shape in zip(values, shapes)
    ]
    builder.print_([emit(builder, *operands)])
    builder.ret()
    return _outcome(module)


def _same(actual, expected):
    return actual == expected and type(actual) is type(expected)


BINARY = [
    ("add", 7, -2, 5), ("sub", 7, -2, 9), ("mul", 7, -2, -14),
    ("div", 7, -2, -3), ("div", -7, 2, -3), ("rem", 7, -2, 1),
    ("rem", -7, 2, -1), ("min", 7, -2, -2), ("max", 7, -2, 7),
    ("pow", 7, 2, 49), ("and", 6, 3, 2), ("or", 6, 3, 7), ("xor", 6, 3, 5),
    ("shl", 6, 3, 48), ("shr", 6, 1, 3),
    ("add", 1.5, 2.25, 3.75), ("sub", 1.5, 2.25, -0.75),
    ("mul", 1.5, 2.0, 3.0), ("div", 7.0, 2.0, 3.5), ("min", 1.5, 2.25, 1.5),
    ("max", 1.5, 2.25, 2.25), ("pow", 2.0, 0.5, math.sqrt(2.0)),
    ("div", 1, 0, "integer division by zero"),
    ("rem", 1, 0, "integer division by zero"),
    ("div", 1.0, 0.0, "float division by zero"),
]

UNARY = [
    ("neg", 3, -3), ("neg", 1.5, -1.5), ("not", True, False),
    ("not", 5, -6), ("abs", -3, 3), ("abs", -1.5, 1.5),
    ("sqrt", 2.25, 1.5), ("sin", 0.0, 0.0), ("cos", 0.0, 1.0),
    ("exp", 0.0, 1.0), ("log", 1.0, 0.0), ("floor", 2.7, 2.0),
    ("floor", -2.5, -3.0),
    ("sqrt", -1.0, "math error in sqrt: math domain error"),
    ("log", 0.0, "math error in log: math domain error"),
]

CASTS = [
    ("int_to_float", 3, 3.0), ("float_to_int", 2.9, 2),
    ("float_to_int", -2.9, -2), ("bool_to_int", True, 1),
    ("bool_to_int", False, 0),
]

PREDICATES = [
    ("eq", 3, 5, False), ("eq", 5, 5, True), ("ne", 3, 5, True),
    ("lt", 3, 5, True), ("lt", 5, 5, False), ("le", 5, 5, True),
    ("gt", 5, 3, True), ("gt", 5, 5, False), ("ge", 5, 5, True),
    ("ge", 3, 5, False), ("lt", 1.5, 2.5, True),
]

_SHAPES = ("register", "constant")


def _ids(cases):
    return [f"{case[0]}-{'-'.join(map(str, case[1:-1]))}" for case in cases]


@pytest.mark.parametrize("op,a,b,expected", BINARY, ids=_ids(BINARY))
def test_every_binary_op(op, a, b, expected):
    for shapes in itertools.product(_SHAPES, repeat=2):
        assert _same(
            _evaluate(lambda bld, x, y: bld.binop(op, x, y), (a, b), shapes),
            expected,
        ), shapes


@pytest.mark.parametrize("op,a,expected", UNARY, ids=_ids(UNARY))
def test_every_unary_op(op, a, expected):
    for shape in _SHAPES:
        assert _same(
            _evaluate(lambda bld, x: bld.unop(op, x), (a,), (shape,)),
            expected,
        ), shape


@pytest.mark.parametrize("kind,a,expected", CASTS, ids=_ids(CASTS))
def test_every_cast(kind, a, expected):
    for shape in _SHAPES:
        assert _same(
            _evaluate(lambda bld, x: bld.cast(kind, x), (a,), (shape,)),
            expected,
        ), shape


@pytest.mark.parametrize(
    "predicate,a,b,expected", PREDICATES, ids=_ids(PREDICATES)
)
def test_every_predicate(predicate, a, b, expected):
    for shapes in itertools.product(_SHAPES, repeat=2):
        assert _same(
            _evaluate(
                lambda bld, x, y: bld.cmp(predicate, x, y), (a, b), shapes
            ),
            expected,
        ), shapes


def test_the_operator_tables_cover_the_instruction_set():
    from repro.ir import instructions as insts

    assert {case[0] for case in BINARY} == insts.BINARY_OPS
    assert {case[0] for case in UNARY} == insts.UNARY_OPS
    assert {case[0] for case in CASTS} == insts.CAST_KINDS
    assert {case[0] for case in PREDICATES} == insts.CMP_PREDICATES


# -- the other instruction classes ----------------------------------------------


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("index,expected", [(2, 30), (4, None), (-1, None)])
def test_gep_load_store_through_a_global_and_an_alloca(
    index, expected, shape
):
    for use_global in (True, False):
        module, builder = _main()
        array = ArrayType(INT, 4)
        base = (
            module.add_global("g", array, [0, 10, 20, 30]) if use_global
            else builder.alloca(array)
        )
        builder.store(builder.int(30), builder.gep(base, builder.int(2)))
        pointer = builder.gep(base, _operand(builder, index, shape))
        builder.print_([builder.load(pointer)])
        builder.ret()
        if expected is None:
            expected_here = (
                f"index {index} out of bounds for [4 x int] "
                f"(gep #{pointer.uid})"
            )
        else:
            expected_here = expected
        assert _outcome(module) == expected_here


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("target", ("alloca", "gep", "global"))
def test_store_and_load_through_every_pointer_shape(target, shape):
    module, builder = _main()
    if target == "global":
        pointer = module.add_global("g", INT, 5)
    elif target == "gep":
        array = module.add_global("g", ArrayType(INT, 4), [0, 1, 2, 3])
        pointer = builder.gep(array, _operand(builder, 3, shape))
    else:
        pointer = builder.alloca(INT)
    builder.store(_operand(builder, 11, shape), pointer)
    builder.print_([builder.load(pointer)])
    builder.ret()
    assert _outcome(module) == 11


def test_a_global_load_reads_its_initializer():
    module, builder = _main()
    builder.print_([builder.load(module.add_global("g", FLOAT, 2.5))])
    builder.ret()
    assert _same(_outcome(module), 2.5)


@pytest.mark.parametrize(
    "shapes", list(itertools.product(_SHAPES, repeat=3)),
    ids=lambda shapes: "-".join(shapes),
)
@pytest.mark.parametrize("condition", (True, False))
def test_select_over_every_operand_shape(condition, shapes):
    assert _same(
        _evaluate(
            lambda bld, c, x, y: bld.select(c, x, y),
            (condition, 7, -2), shapes,
        ),
        7 if condition else -2,
    )


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("condition", (True, False))
def test_branch_on_either_operand_shape(condition, shape):
    module, builder = _main()
    function = builder.block.parent
    taken = function.create_block("taken")
    other = function.create_block("other")
    builder.branch(_operand(builder, condition, shape), taken, other)
    for block, label in ((taken, 1), (other, 2)):
        builder.position_at_end(block)
        builder.print_([builder.int(label)])
        builder.ret()
    assert _outcome(module) == (1 if condition else 2)


def test_argument_operands_go_through_their_getters():
    """An argument is no register: every user of one reads it through
    its getter, a pointer argument's ``gep`` (and its bounds check) too."""
    module = Module("decode")
    array = ArrayType(INT, 4)
    callee = module.create_function(
        "f", (PointerType(array), INT, BOOL), ("a", "x", "flag"),
        return_type=INT,
    )
    builder = IRBuilder(callee.create_block("entry"))
    taken, other = callee.create_block("taken"), callee.create_block("other")
    a, x, flag = callee.args
    builder.store(x, builder.gep(a, x))
    builder.print_([
        builder.load(builder.gep(a, builder.int(1))),
        builder.add(x, builder.int(1)),
        builder.binop("sub", builder.int(9), x),
        builder.cast("int_to_float", x),
        builder.unop("neg", x),
        builder.cmp("lt", x, builder.int(2)),
        builder.select(flag, x, builder.int(0)),
    ])
    builder.branch(flag, taken, other)
    for block, result in ((taken, x), (other, builder.int(0))):
        builder.position_at_end(block)
        builder.ret(result)
    main = module.create_function("main")
    builder = IRBuilder(main.create_block("entry"))
    storage = builder.alloca(array)
    for value, truth in ((1, True), (3, False), (4, True)):
        builder.print_([builder.call(
            callee, [storage, builder.int(value), builder.bool(truth)]
        )])
    builder.ret()
    interpreter = Interpreter(module)
    with pytest.raises(EmulationError) as raised:
        interpreter.run()
    assert interpreter.output == [
        (None, (1, 2, 8, 1.0, -1, True, 1)), (None, (1,)),
        (None, (1, 4, 6, 3.0, -3, False, 0)), (None, (0,)),
    ]
    (gep,) = [
        inst for inst in callee.entry.instructions
        if inst.opcode == "gep" and inst.index is x
    ]
    assert str(raised.value) == (
        f"index 4 out of bounds for [4 x int] (gep #{gep.uid})"
    )


def test_select_evaluates_only_the_chosen_arm():
    module, builder = _main()
    function = builder.block.parent
    skipped = function.create_block("skipped")
    done = function.create_block("done")
    builder.jump(done)
    builder.position_at_end(skipped)
    never = builder.add(builder.int(1), builder.int(1))
    builder.jump(done)
    builder.position_at_end(done)
    chosen = builder.select(builder.bool(True), builder.int(7), never)
    builder.print_([chosen])
    unchosen = builder.select(builder.bool(False), builder.int(7), never)
    builder.print_([unchosen])
    builder.ret()
    with pytest.raises(EmulationError) as raised:
        run_module(module)
    assert str(raised.value) == (
        f"use of unexecuted instruction %{never.uid}"
    )


@pytest.mark.parametrize("user", (
    "load", "binop", "cast", "gep", "branch", "unary", "select",
    "store-value", "store-pointer", "store-both",
))
def test_use_of_an_unexecuted_register(user):
    module, builder = _main()
    function = builder.block.parent
    skipped = function.create_block("skipped")
    done = function.create_block("done")
    array = builder.alloca(ArrayType(INT, 4))
    slot = builder.alloca(INT)
    builder.jump(done)
    builder.position_at_end(skipped)
    pointer = builder.alloca(INT)
    number = builder.add(builder.int(1), builder.int(1))
    flag = builder.cmp("lt", builder.int(1), builder.int(2))
    builder.jump(done)
    builder.position_at_end(done)
    if user == "load":
        missing = pointer
        builder.load(pointer)
    elif user == "binop":
        missing = number
        builder.add(number, builder.int(1))
    elif user == "cast":
        missing = number
        builder.cast("int_to_float", number)
    elif user == "gep":
        missing = number
        builder.gep(array, number)
    elif user == "unary":
        missing = number
        builder.unop("neg", number)
    elif user == "select":
        missing = flag
        builder.select(flag, builder.int(1), builder.int(2))
    elif user == "store-value":
        missing = number
        builder.store(number, slot)
    elif user == "store-pointer":
        missing = pointer
        builder.store(builder.int(1), pointer)
    elif user == "store-both":  # the value is read first
        missing = number
        builder.store(number, pointer)
    else:
        missing = flag
        builder.branch(flag, done, done)
    if user != "branch":
        builder.ret()
    with pytest.raises(EmulationError) as raised:
        run_module(module)
    assert str(raised.value) == (
        f"use of unexecuted instruction %{missing.uid}"
    )


def test_call_print_branch_and_return():
    module = Module("decode")
    callee = module.create_function(
        "pick", (INT, INT), ("a", "b"), return_type=INT
    )
    builder = IRBuilder(callee.create_block("entry"))
    low = callee.create_block("low")
    high = callee.create_block("high")
    a, b = callee.args
    builder.branch(builder.cmp("lt", a, b), low, high)
    builder.position_at_end(low)
    builder.ret(a)
    builder.position_at_end(high)
    builder.ret(b)
    log = module.create_function("log", (INT,), ("x",))
    builder = IRBuilder(log.create_block("entry"))
    builder.print_([log.args[0]])
    builder.ret()
    main = module.create_function("main")
    builder = IRBuilder(main.create_block("entry"))
    builder.call(log, [builder.call(callee, [builder.int(9), builder.int(4)])])
    builder.call(log, [builder.call(callee, [builder.int(2), builder.int(4)])])
    builder.ret()
    result = run_module(module)
    assert result.output == [(None, (4,)), (None, (2,))]
    # main: 4 calls + return; pick: cmp, branch, return; log: print, return.
    assert result.steps == 5 + 2 * 3 + 2 * 2
    assert Interpreter(module).run("pick", (1, 2)).return_value == 1


def test_a_block_without_a_terminator_falls_off():
    module, builder = _main()
    builder.print_([builder.int(1)])
    with pytest.raises(EmulationError) as raised:
        run_module(module)
    assert str(raised.value) == "fell off the end of block entry in @main"


PRIVATE_GLOBALS = """
global s: int;
global t: int[4];
global out: int[16];

func main() {
  pragma omp parallel_for private(t) reduction(+: s)
  for p in 0..16 {
    t[p % 4] = p * 3;
    s = s + t[p % 4];
    out[p] = t[p % 4];
  }
  print(s, out[15], t[0]);
}
"""


@pytest.mark.parametrize("backend", ("simulated", "threads"))
def test_a_privatized_global_is_read_inline_from_the_workers_copy(backend):
    """``s`` (a global ``load``) and ``t`` (a global ``gep`` base) read
    each worker's own copy: the parent's ``t`` is never written."""
    module = compile_source(PRIVATE_GLOBALS)
    assert run_module(module).output == [(None, (360, 45, 36))]
    parallel = run_source_plan(
        module, workers=2, backend=backend, compile_regions=False
    )
    assert parallel.output == [(None, (360, 45, 0))]


def _op_calls(op, interpreter, frame):
    """Python ``call`` events while ``op`` runs.  No collection runs in
    between: the finalizers of earlier tests' garbage would count."""
    events = []
    gc.collect()
    gc.disable()
    sys.setprofile(lambda _frame, event, _arg: events.append(event))
    try:
        op(interpreter, frame)
    finally:
        sys.setprofile(None)
        gc.enable()
    return events.count("call")


def test_every_inline_shape_costs_its_step_one_call():
    """Under ``sys.setprofile`` each op is one Python ``call`` event (the
    builtins it applies are ``c_call`` ones), so an operand getter or a
    helper creeping back into an inline shape shows as a second."""
    module, builder = _main()
    function = builder.block.parent
    done = function.create_block("done")
    array = module.add_global("g", ArrayType(INT, 4), [0, 1, 2, 3])
    local = builder.alloca(ArrayType(INT, 4))
    cell = builder.gep(local, builder.int(1))
    builder.store(builder.int(2), cell)
    index = builder.load(cell)
    builder.store(index, builder.gep(local, index))
    x = builder.load(builder.gep(array, index))
    builder.gep(array, builder.int(3))
    y = builder.load(module.add_global("s", INT, 5))
    flag = builder.cmp("lt", x, builder.int(3))
    builder.add(x, y)
    builder.add(x, builder.int(1))
    builder.binop("sub", builder.int(1), x)
    builder.unop("neg", x)
    builder.cast("int_to_float", x)
    builder.select(flag, x, builder.int(0))
    builder.select(builder.bool(False), builder.int(1), y)
    builder.branch(flag, done, done)
    block = function.entry
    interpreter, frame = Interpreter(module), _Frame(function, [])
    costs = []
    for inst, op in zip(block.instructions, decode_block(block)):
        costs.append((inst.opcode, [o.short() for o in inst.operands],
                      _op_calls(op, interpreter, frame)))
    assert len(costs) == 19
    assert [cost for cost in costs if cost[2] != 1] == []


# -- the decode table's two hazards ---------------------------------------------

PROGRAM = """
global a: int[32];

func main() {
  var s: int = 0;
  pragma omp parallel_for reduction(+: s)
  for i in 0..32 {
    a[i] = i * 3;
    s = s + a[i];
  }
  print(s, a[31]);
}
"""


def test_a_run_leaves_nothing_on_the_ir():
    """The module is pickled to pool workers and its bytes key the codec
    caches: decoding must not ride on any IR object."""
    module = compile_source(PROGRAM)
    before = pickle.dumps(module)
    key = module_codec(module).key
    expected = run_module(module).output
    assert pickle.dumps(module) == before
    simulated = run_source_plan(
        module, workers=2, backend="simulated", compile_regions=False
    )
    assert simulated.output == expected
    assert pickle.dumps(module) == before
    # A child decodes for itself what the parent had already decoded.
    shipped = run_source_plan(
        module, workers=2, backend="processes", compile_regions=False
    )
    assert shipped.output == expected
    assert sum(r["interpreted_chunks"] for r in shipped.parallel_regions) == 2
    assert pickle.dumps(module) == before
    assert module_codec(module).key == key


def test_a_block_mutated_between_runs_is_decoded_afresh():
    """The rule: a run starts with an empty table, so IR edited between
    two runs of one interpreter executes as edited."""
    module = compile_source("func main() { print(1); }")
    interpreter = Interpreter(module)
    assert interpreter.run().output == [(None, (1,))]
    block = module.function("main").entry
    while block.terminator.successors():
        (block,) = block.terminator.successors()
    terminator = block.instructions.pop()
    builder = IRBuilder(block)
    builder.print_([builder.int(2)])
    block.append(terminator)
    assert interpreter.run().output == [(None, (1,)), (None, (2,))]


FILL_AND_ACCUMULATE = """
global data: int[64];
global s: int;

func fill(b: int[64]) {
  for i in 0..64 {
    b[i] = i * 2;
  }
}

func main() {
  fill(data);
  for i in 0..64 {
    s = s + data[i];
  }
  print(s);
}
"""


@pytest.mark.parametrize("name", ("fill", "main"))
def test_an_argument_base_and_a_global_store_cost_one_call(name):
    """``fill``'s ``gep %b, %i`` (an array parameter as the base) and
    ``main``'s ``store %sum, @s`` (a scalar global as the pointer) read
    their operands inline: every op of either loop body is one Python
    ``call`` event, as in the test above."""
    module = compile_source(FILL_AND_ACCUMULATE)
    assert run_module(module).output == [(None, (4032,))]
    interpreter = Interpreter(module)
    storage = interpreter._global_storage
    function = module.function(name)
    args = [(storage["data"], 0)] if name == "fill" else []
    frame = _Frame(function, args)
    for op in decode_block(function.entry):  # the induction alloca, 0
        op(interpreter, frame)
    (alloca,) = [inst for inst in function.entry.instructions
                 if inst.opcode == "alloca"]
    frame.objects[alloca][0] = 3  # run the body at i = 3
    body = function.block("for.body")
    costs = []
    for inst, op in zip(body.instructions, decode_block(body)):
        costs.append((inst.opcode, [o.short() for o in inst.operands],
                      _op_calls(op, interpreter, frame)))
    shape = ("gep", ["%b", "%8"]) if name == "fill" else (
        "store", ["%11", "@s"]
    )
    assert shape in [(opcode, operands) for opcode, operands, _n in costs]
    assert [cost for cost in costs if cost[2] != 1] == []
    # data[3] = 3 * 2; main's entry called fill, so s = 0 + data[3].
    assert storage["data"][3] == 6
    assert storage["s"] == [6 if name == "main" else 0]
