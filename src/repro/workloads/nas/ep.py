"""Mini EP — embarrassingly parallel (random-pair counting).

The NAS EP structure: one big ``parallel for`` whose body derives
per-iteration pseudo-randoms (a per-iteration-seeded LCG), classifies the
point, and accumulates counts and coordinate sums through ``reduction``
clauses.  The paper uses EP as the flat case: the programmer's plan is
already near-optimal, every abstraction proves the loop parallel, and the
PS-PDG's job is only to *not lose* any parallelism.
"""

NAME = "EP"

SOURCE = """
func main() {
  var q0: int = 0;
  var q1: int = 0;
  var q2: int = 0;
  var q3: int = 0;
  var sx: float = 0.0;
  var sy: float = 0.0;
  pragma omp parallel_for reduction(+: q0, q1, q2, q3) reduction(+: sx, sy) schedule(static)
  for k in 0..256 {
    var s1: int = (k * 1103515245 + 12345) % 65536;
    var s2: int = (s1 * 1103515245 + 12345) % 65536;
    var x: float = float(s1) / 32768.0 - 1.0;
    var y: float = float(s2) / 32768.0 - 1.0;
    var r: float = x * x + y * y;
    if (r <= 1.0) {
      var bin: int = int(4.0 * r);
      if (bin == 0) { q0 = q0 + 1; }
      if (bin == 1) { q1 = q1 + 1; }
      if (bin == 2) { q2 = q2 + 1; }
      if (bin == 3) { q3 = q3 + 1; }
      sx = sx + x;
      sy = sy + y;
    }
  }
  print("counts", q0, q1, q2, q3);
  print("sums", sx, sy);
}
"""
