"""Which lowering each benchmarked region loop got, as one tracked line.

    python3 benchmarks/lowering_census.py

Plans the programs ``benchmarks/e2e`` runs compiled (the eight NAS
kernels and ``dense96``, PS-PDG plan at ``-O2``, as ``run-threads`` and
``run-dense`` do), reads the ``compile_regions`` stage record and prints
``structured / state_machine / refused`` with every loop that is not
``structured`` and what refused it.  Exits 1 if a loop is ``refused``:
all 23 compiled when the structured emitter landed, so a refusal is a
loop that went back to the interpreter.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from catalogue import NAS8, PLAN, load_program  # noqa: E402
from repro.session import Session  # noqa: E402

KINDS = ("structured", "state_machine", "refused")


def census(names=NAS8 + ("dense96",)):
    """``(program, header, kind, why)`` for every planned region loop."""
    rows = []
    for name in names:
        session = Session.from_source(
            load_program(name).text, name=name, opt_level=2,
            compile_regions=True, abstractions=(PLAN,),
        )
        for header, (kind, why) in session.compiled_regions["tiers"].items():
            rows.append((name, header, kind, why))
    return rows


def main():
    rows = census()
    counts = [sum(row[2] == kind for row in rows) for kind in KINDS]
    print(f"lowering census ({' / '.join(KINDS)}): "
          f"{' / '.join(map(str, counts))}")
    for name, header, kind, why in rows:
        if kind != "structured":
            print(f"  {name} {header}: {kind} ({why})")
    return 1 if counts[2] else 0


if __name__ == "__main__":
    sys.exit(main())
