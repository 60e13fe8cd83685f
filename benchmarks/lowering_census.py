"""What the one emitter lowers and what it refuses, as six tracked lines.

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
* **profiles** — the same functions through ``compile_profiled``, with
  the count of their counted loops recorded once per instance (a
  straight body with no call: no per-iteration counter or intern).

The fourth line splits the counted inner loops (``for v in range(v,
hi)``) of the chunk bodies by how they count steps: charged once in
front of the loop (a straight body that cannot raise), or per iteration.
The fifth counts those of the once-charged that run as slices — a slice
store's comprehension, or a ``for`` over zipped lanes — instead of a
``for`` over the range.  The sixth splits the loops of the lowered
sequences the same way, next to the ``while True:`` loops left in them.

Every refusal is listed as ``<program> <function>[@-O<n>]: <block>:
<why>``; exits 1 on any — a refused body is one that went back to the
interpreter.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from catalogue import NAS8, PLAN, load_program  # noqa: E402
from repro.analysis.record import FunctionAnalyses  # noqa: E402
from repro.codegen.cache import compiled_chunk  # noqa: E402
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


def _charges(source):
    """``[charged once, per iteration, as slices]`` over ``source``'s
    counted loops."""
    once = len(re.findall(r"_steps \+= \d+ \* \(", source))
    sliced = len(re.findall(
        r"^\s*(?:\S+\[[^]]*:[^]]*\] = \[|for (?:_l|.* in zip\())",
        source, re.M,
    ))
    ranges = len(re.findall(r"^\s*for \S+ in range\(", source, re.M))
    return [once, ranges - (once - sliced), sliced]


def _sequence_loops(function, stops, loops_by_header, totals):
    """Lower one sequence; add ``[counted, while, charged once, as
    slices]`` over its loops into ``totals``."""
    source = lower_sequence(function, stops, loops_by_header)[0]
    once, each, sliced = _charges(source)
    whiles = len(re.findall(r"^\s*while True:", source, re.M))
    for index, count in enumerate((once + each, whiles, once, sliced)):
        totals[index] += count


def _profiled(function, analyses, totals):
    """Lower one profile; add its loops recorded once per instance into
    ``totals``."""
    source = compile_profiled(
        function, analyses.loops, analyses.dominators
    ).source
    totals[0] += len(re.findall(r"^\s*_F\w+ = _expand\(", source, re.M))


def census():
    """``(population -> [(label, refusal or None), ...], [charged once,
    per iteration, as slices], [sequence loops counted, while, charged
    once, as slices], [profile loops recorded once per instance])``."""
    rows = {"chunk bodies": [], "sequences": [], "profiles": []}
    charges = [0, 0, 0]
    sequences = [0, 0, 0, 0]
    instances = [0]
    for name, text in _texts():
        for level in LEVELS:
            session = Session.from_source(
                text, name=name, opt_level=level, compile_regions=True,
                abstractions=(PLAN,),
            )
            regions = {
                region.loops[0].header: region
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
                    _refusal(lambda: _sequence_loops(
                        function, stops, analyses.loops_by_header,
                        sequences,
                    )),
                ))
                if level == 0:
                    rows["profiles"].append((
                        f"{name} {function.name}",
                        _refusal(lambda: _profiled(
                            function, analyses, instances
                        )),
                    ))
            if level == 2 and name in COMPILED:
                tiers = session.compiled_regions["tiers"]
                for header, (kind, why) in tiers.items():
                    rows["chunk bodies"].append((
                        f"{name} {header}",
                        why if kind == "refused" else None,
                    ))
                    entry = compiled_chunk(
                        session.module,
                        session.analyses.loops_by_header[header],
                    )
                    if entry is not None:
                        for index, count in enumerate(
                            _charges(entry.source)
                        ):
                            charges[index] += count
    return rows, charges, sequences, instances


def main():
    refused = 0
    populations, (once, each, sliced), sequences, (instances,) = census()
    suffix = {"profiles": f", {instances} loops recorded once per instance"}
    print("lowering census (structured / refused)")
    for population, rows in populations.items():
        refusals = [(label, why) for label, why in rows if why]
        refused += len(refusals)
        print(f"  {population}: {len(rows) - len(refusals)} / "
              f"{len(refusals)}{suffix.get(population, '')}")
        for label, why in refusals:
            print(f"    {label}: {why}")
    print(f"  counted inner loops: {once} charged once / {each} per "
          "iteration")
    print(f"  counted inner loops as slices: {sliced}")
    print("  sequence loops: {} counted / {} while, {} charged once, {} as "
          "slices".format(*sequences))
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
