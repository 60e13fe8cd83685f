"""Shared fixtures and helpers for the test suite."""

import os
import sys

import pytest

from repro.frontend import compile_source

# Make the shared helper package (tests/support) importable from every
# test module regardless of which directory pytest rooted it in.
_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture(autouse=True)
def _fresh_codec_caches():
    """Reset the payload codec's module-global caches around every test.

    The codec keeps parent-side module byte caches and an (in-process)
    decoded-module cache; without this fixture a test would depend on
    what an earlier one pickled or decoded in the same process.
    Deliberately does *not* replace the chunk pool — forking a pool per
    test would dominate suite runtime — so the pool's workers, and the
    pool's own record of which modules they were sent, carry over: a
    test that reads wire bytes or needs a cold pool resets it with its
    own fixture (``backends._reset_chunk_pool``).
    """
    from repro.runtime import faults, knobs, payload

    knobs.refresh()
    payload.reset_codec_caches()
    faults.reset()
    from repro.codegen import cache as codegen_cache

    codegen_cache.reset()
    yield


@pytest.fixture
def compile_():
    """Compile MiniOMP source to a verified module."""
    return compile_source


def compile_main(source):
    """Compile and return (module, main function)."""
    module = compile_source(source)
    return module, module.function("main")


SIMPLE_LOOP = """
func main() {
  var s: int = 0;
  for i in 0..10 {
    s = s + i;
  }
  print(s);
}
"""

AFFINE_ARRAY_LOOP = """
global a: int[16];
global b: int[16];

func main() {
  for i in 0..16 {
    a[i] = i * 2;
    b[i] = a[i] + 1;
  }
  print(b[7]);
}
"""
