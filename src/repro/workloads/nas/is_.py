"""Mini IS — integer sort (bucket ranking), the paper's running example.

Structure mirrors NAS IS's hot kernel (paper Fig. 3):

* a sequential key generator (``create_seq``);
* a time-step loop around an ``omp parallel`` region containing
  - loop 1: per-thread zeroing of the **threadprivate** work buffer
    ``prv`` (not workshared: every thread initializes its own copy),
  - loop 2: workshared ranking ``prv[key[j]] += 1`` (indirect index —
    race-free only because ``prv`` is threadprivate; no sequential
    analysis can prove this),
  - loop 3: per-thread prefix sum over ``prv`` (a true recurrence),
  - loop 4: merge into the shared ``key_buff`` under ``omp critical``.

What each abstraction can do with this is exactly the paper's argument:
the PDG is stuck behind the indirect index and the critical; J&K recovers
only the loops the developer workshared; the PS-PDG knows ``prv`` is
privatizable, the critical is orderless, and loop 4 is independent.
"""

NAME = "IS"

SOURCE = """
global key: int[512];
global prv: int[64];
global key_buff: int[64];
pragma omp threadprivate(prv)

func main() {
  var seed: int = 314159;
  for g in 0..512 {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    key[g] = seed % 64;
  }
  for t in 0..3 {
    pragma omp parallel
    {
      for i in 0..64 {
        prv[i] = 0;
      }
      pragma omp for
      for j in 0..512 {
        var k: int = key[j];
        prv[k] = prv[k] + 1;
      }
      for i in 1..64 {
        prv[i] = prv[i] + prv[i - 1];
      }
      pragma omp critical
      {
        for i in 0..64 {
          key_buff[i] = key_buff[i] + prv[i];
        }
      }
    }
  }
  print("checksum", key_buff[0], key_buff[32], key_buff[63]);
}
"""
