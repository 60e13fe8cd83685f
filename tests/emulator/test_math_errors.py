"""Python's range and domain errors never escape an engine.

``exp(1000.0)``, ``floor(inf)``, a ``float_to_int`` cast of ``inf`` or
``nan``, a float ``pow`` overflow and a shift by a negative count raise
builtin ``OverflowError`` / ``ValueError`` / ``ZeroDivisionError`` in
Python, and an int ``pow`` with a negative exponent answers with a
float; every engine — the interpreter, compiled sequential stretches,
compiled chunks — reports them as one :class:`EmulationError` with one
text, so the CLI prints ``error: ...`` instead of crashing.
"""

import dataclasses

import pytest

from repro import Session
from repro.emulator.interp import run_module
from repro.frontend import compile_source
from repro.runtime import knobs, run_parallel
from repro.util.errors import EmulationError
from support.ir_parser import parse_ir
from support.plans import run_source_plan

_HUGE = "var x: float = 1.0e308;\n  x = x * 10.0;\n"

#: name -> (statements computing ``y`` from the loop variable ``i``, error)
CASES = {
    "exp": (
        "var y: float = exp(1000.0 + float(i));",
        "math error in exp: math range error",
    ),
    "floor": (
        _HUGE + "  var y: float = floor(x + float(i));",
        "math error in floor: cannot convert float infinity to integer",
    ),
    "int-of-inf": (
        _HUGE + "  var y: int = int(x + float(i));",
        "math error in float_to_int: cannot convert float infinity "
        "to integer",
    ),
    "int-of-nan": (
        _HUGE + "  var y: int = int(x - x + float(i));",
        "math error in float_to_int: cannot convert float NaN to integer",
    ),
}


def _sequential(body):
    return (
        "func main() {\n  var i: int = 0;\n  " + body + "\n  print(y);\n}\n"
    )


def _region(body):
    return (
        "global out: float[4];\n"
        "func main() {\n"
        "  pragma omp parallel_for\n"
        "  for i in 0..4 {\n  " + body + "\n  out[i] = float(y);\n  }\n"
        "}\n"
    )


POW = """
func @main() -> void {
entry:
  %0 = alloca float
  store 10.0, %0
  %2 = load %0
  %3 = pow %2, 400.0
  print "p", %3
  return
}
"""

ZERO_TO_NEGATIVE = POW.replace("store 10.0", "store 0.0").replace(
    "400.0", "-1.0"
)


#: Only hand-written IR has ``shl``/``shr``/``pow``: the frontend emits none.
INT_BINARY = """
func @main() -> void {
entry:
  %0 = alloca int
  store -1, %0
  %2 = load %0
  %3 = OP 2, %2
  print "b", %3
  return
}
"""

#: op -> the one text for a negative right operand
INT_BINARY_CASES = {
    "shl": "math error in shl: negative shift count",
    "shr": "math error in shr: negative shift count",
    "pow": "math error in pow: negative exponent -1 on an int",
}


def _modules():
    for name, (body, message) in CASES.items():
        yield name, compile_source(_sequential(body)), message
    for op, message in INT_BINARY_CASES.items():
        yield f"{op}-negative", parse_ir(INT_BINARY.replace("OP", op)), \
            message
    yield "pow-overflow", parse_ir(POW), \
        "math error in pow: (34, 'Numerical result out of range')"
    yield "zero-to-negative-power", parse_ir(ZERO_TO_NEGATIVE), \
        "math error in pow: 0.0 cannot be raised to a negative power"


@pytest.fixture(params=(False, True), ids=("plain", "verify-compiled"))
def verify(request, monkeypatch):
    monkeypatch.setattr(knobs, "VERIFY_COMPILED", request.param)
    return request.param


_MODULES = list(_modules())


@pytest.mark.parametrize(
    "name,module,message", _MODULES, ids=[name for name, _m, _e in _MODULES]
)
def test_sequential_engines_raise_the_same_emulation_error(
    name, module, message, verify
):
    with pytest.raises(EmulationError) as interpreted:
        run_module(module)
    assert str(interpreted.value) == message
    with pytest.raises(EmulationError) as compiled:
        run_parallel(module, (), compile_regions=True)
    assert str(compiled.value) == message
    # The profile stage (compiled; cross-checked under VERIFY_COMPILED).
    with pytest.raises(EmulationError) as profiled:
        Session.from_module(module, name=name).execution
    assert str(profiled.value) == message


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("compiled", (False, True))
def test_region_bodies_raise_it_on_both_engines(name, compiled, verify):
    body, message = CASES[name]
    module = compile_source(_region(body))
    with pytest.raises(EmulationError) as raised:
        run_source_plan(
            module, workers=2, backend="threads", compile_regions=compiled
        )
    assert message in str(raised.value)


@pytest.mark.parametrize("op", sorted(INT_BINARY_CASES))
@pytest.mark.parametrize("compiled", (False, True))
def test_int_binops_in_region_bodies_raise_it_on_both_engines(
    op, compiled, verify
):
    module = compile_source(
        _region("var y: int = 2 * (i - 1);").replace("float[4]", "int[4]")
        .replace("float(y)", "y")
    )
    (multiply,) = [
        inst for inst in module.function("main").instructions()
        if getattr(inst, "op", None) == "mul"
    ]
    multiply.op = op  # 2 <op> (i - 1): a negative right operand at i = 0
    with pytest.raises(EmulationError) as raised:
        run_source_plan(
            module, workers=2, backend="threads", compile_regions=compiled
        )
    assert INT_BINARY_CASES[op] in str(raised.value)


def test_the_cli_prints_an_error_not_a_traceback(tmp_path, capsys):
    from repro.cli import main

    program = tmp_path / "overflow.mop"
    program.write_text(_sequential(CASES["exp"][0]))
    assert main(["run", str(program)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "math error in exp" in captured.err
    assert "Traceback" not in captured.err


#: Sequentially every ``exp`` sees 0.0; any stale read a reordered
#: (wrong) schedule makes sees the 1000.0 the rows were seeded with.
#: ``-O3`` re-fits no nest, so it plans this one exactly as ``-O2`` does.
OVERFLOWS_WHEN_REORDERED = """
global m: float[12][16];

func main() {
  for t in 1..12 {
    for j in 0..15 {
      m[t][j] = 1000.0;
    }
  }
  for t in 1..12 {
    pragma omp parallel_for
    for i in 0..15 {
      var k: int = (i + 1) % 16;
      m[t][i] = exp(m[t - 1][k]) - 1.0;
    }
  }
  print("m", m[1][0], m[6][7], m[11][14]);
}
"""


def test_a_nest_that_overflows_when_reordered_is_planned_as_at_o2():
    """The -O3 plan is the -O2 plan plus tiles: the nest's inner loop
    is serialized at both levels, and only the seeding loop is tiled."""
    session = Session.from_source(
        OVERFLOWS_WHEN_REORDERED, name="overflow", opt_level=2
    )
    o2 = session.optimization("PS-PDG").plan
    session.reconfigure(opt_level=3)
    o3 = session.optimization("PS-PDG").plan
    assert o3.loop_plans == o2.loop_plans
    untiled = [dataclasses.replace(r, tile=None) for r in o3.regions]
    assert untiled == list(o2.regions)
    assert [r for r in o3.regions if "for.header.3" in r.headers] == [
        r for r in o2.regions if "for.header.3" in r.headers
    ]
    assert session.execution.output == [("m", (0.0, 0.0, 0.0))]
    # The plan itself: on a GIL build the plan priced for threads runs
    # the tiled loop in place.
    result = session.run(o3, backend="threads", workers=2)
    assert result.parallel_regions
    assert result.output == session.execution.output
