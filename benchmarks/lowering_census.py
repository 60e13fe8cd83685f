"""What the one emitter lowers and what it refuses, as three tracked lines.

    python3 benchmarks/lowering_census.py

Three populations, one ``structured / refused`` line each:

* **chunk bodies** — the region loops of the programs ``benchmarks/e2e``
  runs compiled (the eight NAS kernels and ``dense96``, PS-PDG plan at
  ``-O2``, as ``run-threads`` and ``run-dense`` do), read off the
  ``compile_regions`` stage record: 23 / 0 since the structured emitter
  landed;
* **sequences** — every function of those programs and of
  ``examples/histogram.mop`` under its ``-O0`` .. ``-O3`` stop sets,
  lowered through ``lower_sequence`` with the session's loops;
* **profiles** — the same functions through ``compile_profiled``.

Every refusal is listed as ``<program> <function>[@-O<n>]: <block>:
<why>``; exits 1 on any — a refused body is one that went back to the
interpreter.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from catalogue import NAS8, PLAN, load_program  # noqa: E402
from repro.analysis.record import FunctionAnalyses  # noqa: E402
from repro.codegen.lower import Unsupported  # noqa: E402
from repro.codegen.seq import (  # noqa: E402
    compile_profiled, lower_sequence, sequence_stops,
)
from repro.session import Session  # noqa: E402

COMPILED = NAS8 + ("dense96",)
LEVELS = (0, 1, 2, 3)


def _texts():
    for name in COMPILED:
        yield name, load_program(name).text
    yield "histogram", (ROOT / "examples" / "histogram.mop").read_text()


def _refusal(lower):
    try:
        lower()
    except Unsupported as refusal:
        return str(refusal)
    return None


def census():
    """Population -> ``[(label, refusal or None), ...]``."""
    rows = {"chunk bodies": [], "sequences": [], "profiles": []}
    for name, text in _texts():
        for level in LEVELS:
            session = Session.from_source(
                text, name=name, opt_level=level, compile_regions=True,
                abstractions=(PLAN,),
            )
            regions = {
                region.header: region
                for region in session.region_recipes.get(PLAN, ())
            }
            for function in session.module.functions.values():
                analyses = (
                    session.analyses if function is session.function
                    else FunctionAnalyses(function, session.module)
                )
                stops = sequence_stops(regions, function)
                rows["sequences"].append((
                    f"{name} {function.name}@-O{level}",
                    _refusal(lambda: lower_sequence(
                        function, stops, analyses.loops_by_header
                    )),
                ))
                if level == 0:
                    rows["profiles"].append((
                        f"{name} {function.name}",
                        _refusal(lambda: compile_profiled(
                            function, analyses.loops
                        )),
                    ))
            if level == 2 and name in COMPILED:
                tiers = session.compiled_regions["tiers"]
                for header, (kind, why) in tiers.items():
                    rows["chunk bodies"].append((
                        f"{name} {header}",
                        why if kind == "refused" else None,
                    ))
    return rows


def main():
    refused = 0
    print("lowering census (structured / refused)")
    for population, rows in census().items():
        refusals = [(label, why) for label, why in rows if why]
        refused += len(refusals)
        print(f"  {population}: {len(rows) - len(refusals)} / "
              f"{len(refusals)}")
        for label, why in refusals:
            print(f"    {label}: {why}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
