"""Mini FT — row-wise FFT-style butterfly passes.

NAS FT applies 1-D FFTs along each dimension; rows are independent, which
the source encodes with worksharing.  The butterfly indexing
(``(k / half) * half * 2 + (k % half)``) is *not affine*, so a sequential
dependence analysis must assume the in-place row updates conflict across
rows — only the worksharing declaration (J&K and PS-PDG) recovers the
row-level parallelism.  A second, fully affine scaling loop (the
``evolve`` step) stays provable for everyone.
"""

NAME = "FT"

SOURCE = """
global re: float[16][16];
global im: float[16][16];

func main() {
  for i in 0..16 {
    for j in 0..16 {
      re[i][j] = float((i * 16 + j) % 9) * 0.3;
      im[i][j] = float((i + j) % 5) * 0.2;
    }
  }
  for it in 0..2 {
    pragma omp parallel_for
    for row in 0..16 {
      var half: int = 8;
      while (half >= 1) {
        for k in 0..8 {
          var a: int = (k / half) * half * 2 + (k % half);
          var b: int = a + half;
          var tr: float = re[row][a] - re[row][b];
          var ti: float = im[row][a] - im[row][b];
          re[row][a] = re[row][a] + re[row][b];
          im[row][a] = im[row][a] + im[row][b];
          re[row][b] = tr * 0.7 - ti * 0.7;
          im[row][b] = tr * 0.7 + ti * 0.7;
        }
        half = half / 2;
      }
    }
    pragma omp parallel_for
    for r2 in 0..16 {
      for c in 0..16 {
        re[r2][c] = re[r2][c] * 0.99;
        im[r2][c] = im[r2][c] * 0.99;
      }
    }
  }
  print("re", re[0][0], re[7][9]);
  print("im", im[3][4], im[15][15]);
}
"""
