"""Mini CG — conjugate-gradient iteration (sparse matvec + reductions).

Structure from NAS CG's main loop: a sequential CSR matrix build, then an
iteration loop whose ``parallel`` region contains the workshared sparse
matrix-vector product (inner while-loop over a row's nonzeros, reading
``p[colidx[k]]`` through an indirection), a workshared dot-product
``reduction``, and a vector update the original authors left *unannotated*
— the loop the PS-PDG-driven compiler can still pick up but a source-plan-
bound compiler cannot.
"""

NAME = "CG"

SOURCE = """
global rowstart: int[33];
global colidx: int[160];
global aval: float[160];
global p: float[32];
global w: float[32];

func main() {
  var nz: int = 0;
  for i in 0..32 {
    rowstart[i] = nz;
    for d in 0..5 {
      var c: int = i + d - 2;
      if (c >= 0 && c < 32) {
        colidx[nz] = c;
        aval[nz] = 1.0 / float(1 + i + d);
        nz = nz + 1;
      }
    }
    p[i] = 1.0 + float(i) * 0.5;
  }
  rowstart[32] = nz;

  var rho: float = 0.0;
  for it in 0..3 {
    pragma omp parallel
    {
      pragma omp for
      for i in 0..32 {
        var sum: float = 0.0;
        var k: int = rowstart[i];
        var ke: int = rowstart[i + 1];
        while (k < ke) {
          sum = sum + aval[k] * p[colidx[k]];
          k = k + 1;
        }
        w[i] = sum;
      }
      pragma omp for reduction(+: rho)
      for i in 0..32 {
        rho = rho + w[i] * w[i];
      }
      for i in 0..32 {
        p[i] = p[i] + 0.5 * w[i];
      }
    }
  }
  print("rho", rho);
  print("p", p[0], p[31]);
}
"""
