"""Program texts shared by test modules."""

import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def dense_source(n):
    """The benchmark's ``dense<N>`` program (stencil, mat-vec, axpy)."""
    text = (_ROOT / "benchmarks/e2e/programs/dense.mop.in").read_text()
    for key, value in (("N", n), ("M", n - 1), ("H", n // 2)):
        text = text.replace(f"@{key}@", str(value))
    return text


def histogram_source():
    return (_ROOT / "examples/histogram.mop").read_text()
