"""Mini SP — scalar-pentadiagonal solver skeleton.

Like BT but with fully affine in-place sweeps (no private line buffer), so
worksharing-only dependence improvement does nearly as well as the
PS-PDG — except for the per-line *atomic* bin update (tracking per-band
maxima through a critical), whose orderless nature only the PS-PDG
represents.
"""

NAME = "SP"

SOURCE = """
global u: float[20][20];
global res: float[20][20];
global binmax: float[4];

func main() {
  for i in 0..20 {
    for j in 0..20 {
      u[i][j] = float((i * 5 + j * 11) % 13) * 0.1;
    }
  }
  for it in 0..2 {
    pragma omp parallel_for
    for i in 1..19 {
      for j in 1..19 {
        res[i][j] = u[i][j - 1] + u[i][j + 1] + u[i - 1][j] + u[i + 1][j] - 4.0 * u[i][j];
      }
    }
    pragma omp parallel_for
    for i in 1..19 {
      for j in 1..19 {
        u[i][j] = u[i][j] + 0.25 * res[i][j];
      }
      pragma omp critical
      { binmax[i % 4] = max(binmax[i % 4], res[i][10]); }
    }
  }
  print("binmax", binmax[0], binmax[1], binmax[2], binmax[3]);
  print("u", u[9][9], u[14][3]);
}
"""
