"""Property tests over seeded random programs (tests/support/progen).

~200 seed-pinned cases each: the frontend->IR->printer->parser loop is
stable and semantics-preserving, and ``Session.plan()`` never crashes on
a generated module.  A failing seed reproduces with
``generate_program(seed)`` alone.
"""

import pytest

from repro.emulator import run_module
from repro.frontend import compile_source
from repro.ir import print_module
from repro.session import Session
from support.ir_parser import parse_ir
from support.progen import generate_program

CASES = 200
# Planning runs the full pipeline per program; keep a cheaper subset so
# the property suite stays inside a few seconds.
PLAN_CASES = 60


@pytest.mark.parametrize("chunk", range(0, CASES, 25))
def test_parser_printer_roundtrip_stable(chunk):
    for seed in range(chunk, min(chunk + 25, CASES)):
        source = generate_program(seed)
        module = compile_source(source, f"progen-{seed}")
        text = print_module(module)
        reparsed = parse_ir(text)
        normalized = print_module(reparsed)
        # Idempotent after one normalization pass...
        assert print_module(parse_ir(normalized)) == normalized, (
            f"seed={seed}: printer/parser loop is not stable"
        )
        # ...and semantics-preserving.
        assert (
            run_module(reparsed).output == run_module(module).output
        ), f"seed={seed}: reparsed module diverges"


@pytest.mark.parametrize("chunk", range(0, PLAN_CASES, 20))
def test_plan_never_crashes(chunk):
    for seed in range(chunk, min(chunk + 20, PLAN_CASES)):
        source = generate_program(seed)
        session = Session.from_source(source, name=f"progen-{seed}")
        plan = session.plan("PS-PDG")
        assert plan is not None, f"seed={seed}"
        # The chosen plan must also *execute* conformantly on the oracle.
        expected = session.execution.output
        result = session.run(plan, workers=3, seed=seed % 5)
        from support.conformance import outputs_close

        assert outputs_close(result.output, expected), (
            f"seed={seed}: planned execution diverged: "
            f"{result.output} != {expected}"
        )
