"""Mini LU — SSOR wavefront sweep.

NAS LU's lower/upper solves carry dependences along both grid dimensions;
the classic parallelization sweeps anti-diagonals: the wavefront index
``k`` advances sequentially while the elements *on* each anti-diagonal are
independent — something the developer declares with worksharing, and
the subscript tests prove only by reading the local ``j`` as the ``k -
i`` it was stored.  A workshared residual ``reduction`` follows.
"""

NAME = "LU"

SOURCE = """
global u: float[20][20];

func main() {
  for i in 0..20 {
    for j in 0..20 {
      u[i][j] = float((i * 3 + j * 7) % 19) * 0.1;
    }
  }
  var rsd: float = 0.0;
  for it in 0..2 {
    pragma omp parallel
    {
      for k in 2..38 {
        pragma omp for
        for i in 1..19 {
          var j: int = k - i;
          if (j >= 1 && j < 19) {
            u[i][j] = u[i][j] + 0.2 * (u[i - 1][j] + u[i][j - 1]);
          }
        }
      }
      pragma omp for reduction(+: rsd)
      for i in 0..20 {
        for j in 0..20 {
          rsd = rsd + u[i][j] * u[i][j];
        }
      }
    }
  }
  print("rsd", rsd);
  print("u", u[10][10], u[18][1]);
}
"""
