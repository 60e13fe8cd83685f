"""Mini MG — multigrid smoother (plane-wise relaxation with line buffers).

NAS MG's smoother (``psinv``/``resid``) iterates over planes, computing a
line of intermediate values into small *private* buffers (``r1``, ``r2``)
before updating the grid.  The buffer is written every plane iteration, so
a sequential dependence analysis sees loop-carried WAW/RAW on it — and the
``private`` clause is *data* semantics that worksharing-only dependence
improvement (J&K) cannot represent.  The paper calls MG out for exactly
this: "utilizing the PDG with workshare improved loop dependence analysis
is insufficient to match the PS-PDG, as seen in the MG benchmark".
"""

NAME = "MG"

SOURCE = """
global v: float[256];
global r: float[256];

func main() {
  for i in 0..256 {
    r[i] = float((i * 13) % 17) * 0.1;
  }
  for it in 0..3 {
    var t: float[16];
    pragma omp parallel_for private(t)
    for plane in 0..16 {
      for j in 0..16 {
        t[j] = 0.25 * (r[plane * 16 + j] + r[(plane * 16 + j + 1) % 256]);
      }
      for j in 0..16 {
        v[plane * 16 + j] = v[plane * 16 + j] + t[j];
      }
    }
    pragma omp parallel_for
    for m in 0..256 {
      r[m] = r[m] * 0.95 + v[m] * 0.05;
    }
  }
  print("v", v[0], v[128], v[255]);
}
"""
