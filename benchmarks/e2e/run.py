"""The repository's benchmark: source -> plan -> run, end to end.

    python3 benchmarks/e2e/run.py                      # all six workloads
    python3 benchmarks/e2e/run.py --workload run-dense --seed 3 \\
        --seconds 10 --trace 0                         # one, as the driver does
    python3 benchmarks/e2e/run.py --selfcheck          # suite twice, compared
    python3 benchmarks/e2e/run.py --quick              # seconds, not minutes
    python3 benchmarks/e2e/run.py --regen-expected     # rewrite expected/

Each workload runs in its own fresh Python process (``worker.py``) with
every runtime knob scrubbed from the environment and a fixed hash seed.
With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
Names, units and bounds come from ``BENCHMARK.json``; see ``README.md``.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

import benchenv

#: The contract allows a run 180 s; stop a stuck workload before that.
WORKLOAD_TIMEOUT_S = 170


def run_workload(name, seed, seconds, trace, quick):
    """Run one workload process; its result object, or ``None``."""
    command = [
        sys.executable, str(benchenv.HERE / "worker.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", trace,
    ]
    if quick:
        command.append("--quick")
    # Its own session, so a stuck workload's pool workers die with it.
    process = subprocess.Popen(
        command, env=benchenv.scrubbed_env(os.environ), cwd=benchenv.ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"error: {name} did not finish in {WORKLOAD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if process.returncode not in (0, 1) or not lines:
        print(f"error: {name} exited with {process.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_suite(names, seed, seconds, trace, quick):
    """Workload name -> result, one fresh process after another."""
    results = {}
    for name in names:
        print(f"[{name}] running ...", file=sys.stderr)
        results[name] = run_workload(name, seed, seconds, trace, quick)
    return results


def _render(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_tables(spec, results):
    """Every metric by name, with its unit, one column per workload."""
    names = list(results)
    for title, key in (("end-to-end", "end_to_end"),
                       ("per-layer", "per_layer")):
        rows = [
            metric for metric in spec[key]
            if any(result and metric["name"] in result["metrics"]
                   for result in results.values())
        ]
        if not rows:
            continue
        if key == "end_to_end":
            rows = rows + [{"name": "ops", "unit": "count"},
                           {"name": "failed_ops", "unit": "count"},
                           {"name": "fail_share", "unit": "ratio"}]
        width = max(len(row["name"]) for row in rows)
        print(f"\n{title:{width}}  {'unit':6}"
              + "".join(f"  {name:>15}" for name in names))
        for row in rows:
            cells = []
            for name in names:
                result = results[name]
                if result is None:
                    cells.append("crashed")
                elif row["name"] == "ops":
                    cells.append(str(result["attempted"]))
                elif row["name"] == "failed_ops":
                    cells.append(str(result["failed"]))
                elif row["name"] == "fail_share":
                    cells.append(
                        _render(result["failed"] / result["attempted"])
                    )
                else:
                    cells.append(
                        _render(result["metrics"][row["name"]]["value"])
                    )
            print(f"{row['name']:{width}}  {row['unit']:6}"
                  + "".join(f"  {cell:>15}" for cell in cells))


def all_correct(results):
    return all(result and result["correct"] for result in results.values())


def selfcheck(spec, names, seed, seconds, quick):
    """Run the suite twice; fail if a metric moved by more than its bound."""
    first = run_suite(names, seed, seconds, "0", quick)
    second = run_suite(names, seed, seconds, "0", quick)
    if not (all_correct(first) and all_correct(second)):
        print("selfcheck: a workload failed or crashed", file=sys.stderr)
        return 1
    status = 0
    print(f"{'metric':12} {'workload':15} {'first':>12} {'second':>12} "
          f"{'change':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        for name in names:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            change = abs(b - a) / a
            verdict = "" if change <= metric["bound"] else "  MOVED"
            if verdict:
                status = 1
            print(f"{metric['name']:12} {name:15} {_render(a):>12} "
                  f"{_render(b):>12} {change:>8.2%} "
                  f"{metric['bound']:>6.1%}{verdict}")
    return status


def main(argv=None):
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", choices=("0", "1", "both"), default=None,
        help="0: end-to-end metrics; 1: per-layer metrics from spans;\n"
             "both (the default without --workload): one process for both",
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.regen_expected:
        # The one thing this process does with the system itself.
        sys.path.insert(0, str(benchenv.SOURCE_DIR))
        import catalogue
        from workloads import QUICK_PROGRAMS, WORKLOADS

        names = set(QUICK_PROGRAMS)
        for workload in WORKLOADS.values():
            names.update(workload.programs)
        catalogue.regenerate_expected(sorted(names))
        return 0

    names = [args.workload] if args.workload else workloads
    if args.selfcheck:
        return selfcheck(spec, names, args.seed, args.seconds, args.quick)
    trace = args.trace or ("0" if args.workload else "both")
    results = run_suite(names, args.seed, args.seconds, trace, args.quick)
    print_tables(spec, results)
    if args.workload:
        result = results[args.workload]
        if result is None:
            return 2
        print(json.dumps(result))
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except benchenv.BenchEnvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
