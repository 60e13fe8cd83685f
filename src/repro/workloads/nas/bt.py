"""Mini BT — block-tridiagonal ADI solver skeleton.

NAS BT computes a stencil right-hand side, then sweeps lines with a
forward recurrence into per-line working storage before updating the
grid.  The line buffer is declared ``private``: a data-semantics clause a
worksharing-only improvement cannot use (the buffer is rewritten every
line, so the sequential analysis sees carried WAW/RAW on it).  The
residual norm is a workshared ``reduction``.
"""

NAME = "BT"

SOURCE = """
global u: float[20][20];
global rhs: float[20][20];

func main() {
  for i in 0..20 {
    for j in 0..20 {
      u[i][j] = float((i * 7 + j * 3) % 11) * 0.1;
    }
  }
  for it in 0..2 {
    pragma omp parallel_for
    for i in 1..19 {
      for j in 1..19 {
        rhs[i][j] = u[i][j - 1] + u[i][j + 1] + u[i - 1][j] + u[i + 1][j] - 4.0 * u[i][j];
      }
    }
    var line: float[20];
    pragma omp parallel_for private(line)
    for i in 1..19 {
      line[0] = 0.0;
      for j in 1..19 {
        line[j] = (rhs[i][j] - 0.3 * line[j - 1]) * 0.5;
      }
      for j in 1..19 {
        u[i][j] = u[i][j] + 0.2 * line[j];
      }
    }
  }
  var norm: float = 0.0;
  pragma omp parallel_for reduction(+: norm)
  for i in 0..20 {
    for j in 0..20 {
      norm = norm + rhs[i][j] * rhs[i][j];
    }
  }
  print("norm", norm);
  print("u", u[5][5], u[12][17]);
}
"""
