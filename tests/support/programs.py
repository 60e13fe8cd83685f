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


#: One small region; ``ROTATING % n`` is a distinct module per ``n``
#: (many live Sessions taking turns on one process pool).
ROTATING = """
global a: int[8];

func main() {
  pragma omp parallel for
  for i in 0..8 {
    a[i] = i * %d;
  }
  print(a[5]);
}
"""


# -- returns the structured walk lowers from inside its loops ------------------
#
# ``main`` returns a value in each, so a run pins output, steps, return
# value and globals.  ``return-beside-a-region`` plans its inner loop
# (``run_source_plan``); the others have no region.

EARLY_RETURNS = {
    "two-loops-deep": """
global a: int[8];
func main() -> int {
  var i: int = 0;
  while (i < 4) {
    for j in 0..4 {
      if (i * 4 + j == 9) { print("out", i, j); return i * 10 + j; }
      a[j] = a[j] + i;
    }
    i = i + 1;
  }
  print("never");
  return 0 - 1;
}
""",
    "arm-with-its-own-loop": """
global a: int[8];
func main() -> int {
  for i in 0..6 {
    a[i] = i;
    if (i == 4) {
      var s: int = 0;
      for k in 0..i { s = s + a[k]; if (s > 100) { return 0 - 2; } }
      print("sum", s);
      return s;
    }
  }
  return 0 - 1;
}
""",
    "return-beside-a-region": """
global a: int[16];
func main() -> int {
  var t: int = 0;
  while (t < 6) {
    pragma omp parallel_for
    for i in 0..16 { a[i] = a[i] + t + i; }
    if (a[3] > 12) { print("early", t, a[3]); return t; }
    t = t + 1;
  }
  print("late");
  return 0 - 1;
}
""",
    "both-arms-return": """
global g: int[3];
func pick() -> int {
  var x: int = g[2];
  for i in 0..3 {
    g[0] = g[0] + i;
    if (i == x) {
      if (g[0] > 1) { g[1] = 5; return 1; } else { g[1] = 6; return 2; }
    }
  }
  if (x > 9) { return 3; } else { return 4; }
}
func main() -> int {
  var r: int = pick() * 1000;
  g[2] = 1;
  r = r + pick() * 100;
  g[2] = 2;
  r = r + pick() * 10;
  g[2] = 7;
  r = r + pick();
  print("r", r, g[0], g[1]);
  return r;
}
""",
    "ladder-of-6": """
global g: int[2];
func rung() -> int {
  var x: int = g[1];
  g[0] = g[0] + 1;
  if (x == 0) { return 10; }
  if (x == 1) { return 11; }
  if (x == 2) { return 12; }
  if (x == 3) { return 13; }
  if (x == 4) { return 14; }
  if (x == 5) { return 15; }
  g[0] = g[0] + 100;
  return 99;
}
func main() -> int {
  var s: int = 0;
  for x in 0..8 { g[1] = x; s = s + rung(); }
  print("s", s, g[0]);
  return s;
}
""",
}


# -- CFGs the walk refuses (hand-written IR: the frontend makes none) ----------
#
# name -> (IR text, the refusal).  Each runs to completion, so the
# interpreter that takes it over can be compared with ``run_module``.

_COUNTING_LOOP = """
global @a: [8 x int]

func @main() -> int {
entry:
  %0 = alloca int
  store 0, %0
  jump header
header:
  %3 = load %0
  %4 = cmp lt %3, 8
  branch %4, body, exit
body:
  %6 = load %0
  %7 = gep @a, %6
  store %6, %7
  %9 = cmp eq %6, 5
  branch %9, out, latch
out:
  print "out", %6
  jump @TARGET@
latch:
  %13 = load %0
  %14 = add %13, 1
  store %14, %0
  jump header
exit:
  %17 = load %0
  print "exit", %17
  return %17
}
"""

REFUSED_CFGS = {
    # Two entries into the cycle a <-> b: no header dominates it.
    "irreducible": ("""
global @n: [2 x int]

func @main() -> int {
entry:
  %0 = gep @n, 0
  %1 = load %0
  %2 = cmp eq %1, 0
  branch %2, a, b
a:
  %4 = load %0
  %5 = add %4, 1
  store %5, %0
  jump b
b:
  %8 = load %0
  %9 = add %8, 2
  store %9, %0
  %11 = cmp lt %9, 9
  branch %11, a, done
done:
  print "n", %9
  return %9
}
""", "a: reached around the loop nest's structure"),
    # ``out`` leaves the loop and rejoins the code behind it.
    "break": (
        _COUNTING_LOOP.replace("@TARGET@", "exit"),
        "header: loop is left from a block other than its header",
    ),
    # ... or the body's branch is itself a second exit.
    "two-exits": (
        _COUNTING_LOOP.replace("@TARGET@", "exit").replace(
            "branch %9, out, latch", "branch %9, exit, latch"
        ),
        "header: loop is left from a block other than its header",
    ),
    # A loop nothing leaves, on an arm the run never takes.
    "infinite": ("""
global @n: [1 x int]

func @main() -> int {
entry:
  %0 = gep @n, 0
  %1 = load %0
  %2 = cmp eq %1, 7
  branch %2, spin, done
spin:
  %4 = load %0
  store %4, %0
  jump spin
done:
  store 3, %0
  print "done"
  return 3
}
""", "spin: loop has no exit through its header"),
}
