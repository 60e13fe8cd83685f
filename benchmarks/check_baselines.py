"""Perf gate: compare fresh ``BENCH_*.json`` files against baselines.

Usage (CI runs this after the benchmark steps)::

    python benchmarks/check_baselines.py [--fresh-dir .] \
        [--baseline-dir benchmarks/baselines] [--tolerance 1.25]

``--update`` regenerates the baselines in place instead of gating:
every fresh ``BENCH_*.json`` in ``--fresh-dir`` is copied over its
baseline (new files included), so refreshing after an intentional perf
change is one command::

    python -m pytest benchmarks -q && \
        python benchmarks/check_baselines.py --update

For every baseline file with a fresh counterpart, rows are matched on
their identity fields (kernel, backend, opt level, workers, mode).
``payload_bytes`` — the bytes the codec actually puts on the wire —
**fails** the gate when the fresh value exceeds baseline x tolerance;
wall-clock fields (``seconds``) are report-only, since CI machines
vary far more in speed than in what the codec ships.  Other byte
fields are informational only.
Rows or files present on only one side are reported but never fail
(benchmarks grow).

Exits non-zero on any gated regression.
"""

import argparse
import json
import sys
from pathlib import Path

#: Numeric fields that gate (fresh > baseline * tolerance fails).
#: Deliberately a whitelist: the other ``*_bytes`` stats are
#: timing-dependent retry traffic.
GATED_FIELDS = {"payload_bytes"}

#: Numeric fields reported but never gated.
REPORT_ONLY = {"seconds"}

#: Identity fields: rows are matched on these when present.
IDENTITY_FIELDS = ("bench", "kernel", "backend", "opt", "workers", "mode")


def load_rows(path):
    data = json.loads(path.read_text())
    if isinstance(data, dict):  # schema >= 2 envelope
        return data.get("rows", [])
    return data  # schema 1: bare row list


def row_key(row):
    return tuple(
        (field, row[field]) for field in IDENTITY_FIELDS if field in row
    )


def compare_file(name, baseline_rows, fresh_rows, tolerance):
    failures = []
    notes = []
    fresh_by_key = {row_key(row): row for row in fresh_rows}
    for row in baseline_rows:
        key = row_key(row)
        fresh = fresh_by_key.get(key)
        label = f"{name} {dict(key)}"
        if fresh is None:
            notes.append(f"  [gone] {label}: no fresh row")
            continue
        for field, base_value in row.items():
            if not isinstance(base_value, (int, float)):
                continue
            fresh_value = fresh.get(field)
            if not isinstance(fresh_value, (int, float)):
                continue
            if field in REPORT_ONLY:
                if base_value and fresh_value > base_value * tolerance:
                    notes.append(
                        f"  [slow] {label} {field}: "
                        f"{fresh_value:.4f} vs {base_value:.4f} "
                        "(report-only)"
                    )
                continue
            if field not in GATED_FIELDS:
                continue
            if fresh_value > base_value * tolerance:
                failures.append(
                    f"  [FAIL] {label} {field}: {fresh_value} vs "
                    f"baseline {base_value} (> {tolerance}x)"
                )
            elif base_value and fresh_value * tolerance < base_value:
                notes.append(
                    f"  [win]  {label} {field}: {fresh_value} vs "
                    f"baseline {base_value} — consider refreshing the "
                    "baseline"
                )
    return failures, notes


def update_baselines(fresh_dir, baseline_dir):
    """Copy every fresh ``BENCH_*.json`` over its baseline, verbatim.

    Fresh files with no existing baseline are added; baselines with no
    fresh counterpart are left untouched (a partial bench run must not
    wipe the rest of the suite's history).
    """
    fresh_files = sorted(Path(fresh_dir).glob("BENCH_*.json"))
    if not fresh_files:
        print(f"no fresh BENCH_*.json under {fresh_dir}; nothing to update")
        return 1
    baseline_dir = Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for fresh_path in fresh_files:
        data = json.loads(fresh_path.read_text())  # refuse malformed files
        target = baseline_dir / fresh_path.name
        verb = "update" if target.exists() else "add"
        target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        rows = data.get("rows", data) if isinstance(data, dict) else data
        print(f"[{verb}] {target.name}: {len(rows)} row(s)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh-dir", default=".", type=Path)
    parser.add_argument(
        "--baseline-dir",
        default=Path(__file__).resolve().parent / "baselines",
        type=Path,
    )
    parser.add_argument("--tolerance", default=1.25, type=float)
    parser.add_argument(
        "--update", action="store_true",
        help="copy every fresh BENCH_*.json over its baseline (adding "
             "new ones) instead of gating",
    )
    args = parser.parse_args(argv)

    if args.update:
        return update_baselines(args.fresh_dir, args.baseline_dir)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baseline_dir}; nothing to gate")
        return 0
    all_failures = []
    compared = 0
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            print(f"[skip] {baseline_path.name}: no fresh file")
            continue
        compared += 1
        failures, notes = compare_file(
            baseline_path.name,
            load_rows(baseline_path),
            load_rows(fresh_path),
            args.tolerance,
        )
        status = "FAIL" if failures else "ok"
        print(f"[{status}] {baseline_path.name}")
        for line in failures + notes:
            print(line)
        all_failures.extend(failures)
    if not compared:
        print("no fresh BENCH_*.json matched any baseline; nothing gated")
        return 0
    if all_failures:
        print(
            f"\n{len(all_failures)} payload-bytes regression(s) beyond "
            f"{args.tolerance}x tolerance"
        )
        return 1
    print(f"\nall gated byte metrics within {args.tolerance}x of baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
