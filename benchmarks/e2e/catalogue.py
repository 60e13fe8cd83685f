"""The benchmark's input programs and their reference outputs.

``nas8`` is the paper's section-6 set: the eight NAS mini-kernels'
source texts.  They differ in the features that drive every layer (FT
non-affine subscripts and a ``while``, LU a wavefront, IS reductions
and a critical section, MG ``private`` buffers, EP a single region).

``dense<N>`` is generated from ``programs/dense.mop.in``: a stencil, a
mat-vec with a scalar accumulator and an axpy over ``N x N`` floats,
two sweeps.  It is the one program whose regions are long enough for
generated code, not dispatch, to be most of the region time, and whose
shared state (``2 * N * N`` floats) is big enough for wire bytes to
matter on the ``processes`` backend.

The reference output of a program is what the sequential
:mod:`repro.emulator` interpreter prints for it — independent of the
planner, the optimizer, codegen and the runtime — committed under
``expected/`` together with the interpreter's step count.
"""

import dataclasses
import hashlib
import json
import math
import re

from repro.emulator import run_source
from repro.workloads.nas import KERNELS

from benchenv import HERE

EXPECTED_DIR = HERE / "expected"
DENSE_TEMPLATE = HERE / "programs" / "dense.mop.in"

NAS8 = ("BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP")

#: The abstraction whose plan every run executes.
PLAN = "PS-PDG"

#: Chunks that stay interpreted on a compiled run *by design*, at two
#: workers: SP's critical-section loop is never lowered, because
#: compiled bodies perform no lock transitions.  Anything above this is
#: a silent fallback and fails the operation.
INTERPRETED_BY_DESIGN = {"SP": 4}

#: Float comparison of the conformance suite: backends may reassociate
#: reductions, everything else must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Program:
    name: str
    text: str


class ExpectedOutputError(Exception):
    """An ``expected/`` file is missing or was made from another text."""


def dense_source(n):
    text = DENSE_TEMPLATE.read_text()
    for key, value in (("N", n), ("M", n - 1), ("H", n // 2)):
        text = text.replace(f"@{key}@", str(value))
    return text


def load_program(name):
    """The :class:`Program` called ``name`` (a NAS kernel or ``dense<N>``)."""
    dense = re.fullmatch(r"dense(\d+)", name)
    if dense:
        return Program(name, dense_source(int(dense.group(1))))
    return Program(name, KERNELS[name].SOURCE)


def _text_hash(program):
    return hashlib.sha256(program.text.encode()).hexdigest()


def _as_lists(output):
    return [[label, list(values)] for label, values in output]


def load_expected(program):
    """The committed ``{"output", "steps"}`` reference for ``program``."""
    path = EXPECTED_DIR / f"{program.name}.json"
    if not path.is_file():
        raise ExpectedOutputError(
            f"no expected output for {program.name}: {path} is missing "
            "(run with --regen-expected)"
        )
    expected = json.loads(path.read_text())
    if expected["source_sha256"] != _text_hash(program):
        raise ExpectedOutputError(
            f"{path} was generated from a different source text of "
            f"{program.name} (run with --regen-expected)"
        )
    return expected


def regenerate_expected(names):
    """Rewrite ``expected/<name>.json`` from the sequential interpreter."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        program = load_program(name)
        result = run_source(program.text)
        record = {
            "program": name,
            "source_sha256": _text_hash(program),
            "steps": result.steps,
            "output": _as_lists(result.output),
        }
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path} ({result.steps} steps)")


def _value_matches(actual, expected):
    if isinstance(actual, bool) or isinstance(expected, bool):
        return actual is expected
    if isinstance(actual, float) or isinstance(expected, float):
        return math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
    return actual == expected


def output_matches(output, expected_output):
    """Whether a run's ``output`` equals the reference (floats: isclose)."""
    actual = _as_lists(output)
    if len(actual) != len(expected_output):
        return False
    for (label, values), (want_label, want) in zip(actual, expected_output):
        if label != want_label or len(values) != len(want):
            return False
        if not all(map(_value_matches, values, want)):
            return False
    return True
