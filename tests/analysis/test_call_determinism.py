"""A cold compile's work is a function of the program, not of addresses.

Loops over sets hashed by ``id()`` follow object addresses; one that can
return early makes the number of calls (and, one edit away, the answer)
depend on what the process allocated before.  Subprocesses that
differ in ``PYTHONHASHSEED`` and in what they allocate first compile
EP, IS and SP at ``-O3``: all must make the same number of
``AffineExpr.coefficient`` calls and of Python calls into
``repro/planner/views.py`` (generator resumptions included), and log the
same relaxations.  (Three, not two: an address-dependent count can still
agree by chance.)
"""

import os
import pathlib
import subprocess
import sys

_COMPILE = r"""
import hashlib
import os
import sys

ballast = [object() for _ in range(int(sys.argv[1]))]

from repro import Session
from repro.analysis.affine import AffineExpr

calls = 0
coefficient = AffineExpr.coefficient


def counted(self, name):
    global calls
    calls += 1
    return coefficient(self, name)


AffineExpr.coefficient = counted
VIEWS = os.path.join("repro", "planner", "views.py")
views_calls = 0


def profile(frame, event, arg):
    global views_calls
    if event == "call" and frame.f_code.co_filename.endswith(VIEWS):
        views_calls += 1


sys.setprofile(profile)
for name in ("EP", "IS", "SP"):
    session = Session.from_kernel(name, opt_level=3)
    session.region_recipes
    rows = [
        (r.edge.source.uid, r.edge.destination.uid, r.edge.kind,
         r.edge.mem_kind, repr(r.edge.obj),
         r.context, r.feature, r.loop_independent_removed,
         r.carried_removed)
        for r in session.pspdg.relaxations
    ]
    print(name, hashlib.sha256(repr(rows).encode()).hexdigest())
sys.setprofile(None)
print("AffineExpr.coefficient", calls)
print(VIEWS, views_calls)
"""


def _compile(seed, ballast):
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", _COMPILE, str(ballast)], env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def test_two_cold_compiles_make_the_same_calls_and_log():
    runs = [_compile("1", 0), _compile("2", 50_000), _compile("3", 1_000)]
    assert "AffineExpr.coefficient" in runs[0]
    assert os.path.join("repro", "planner", "views.py") in runs[0]
    assert runs[1:] == runs[:1] * 2
