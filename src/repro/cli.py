"""Command-line interface: the Session pipeline from the shell.

Subcommands mirror the pipeline's stages::

    python -m repro compile examples/histogram.mop --ir
    python -m repro plan    examples/histogram.mop
    python -m repro run     examples/histogram.mop --plan PS-PDG --verify
    python -m repro report  examples/histogram.mop IS MG

A program argument is either a path to a MiniOMP/Cilk source file or the
name of a built-in NAS mini-kernel (``IS``, ``EP``, ``CG``, ``MG``,
``FT``, ``BT``, ``SP``, ``LU``).  All subcommands share one
:class:`repro.Session` per program, so e.g. ``report`` builds each graph
exactly once for both figures.
"""

import argparse
import pathlib
import sys

from repro.pipeline.config import SessionConfig
from repro.planner.experiments import format_fig13_row, format_fig14_row
from repro.planner.machine import MachineModel
from repro.session import Session
from repro.util.errors import ReproError
from repro.util.regionstats import parallel_report

_ABSTRACTION_ORDER = ("Sequential", "OpenMP", "PDG", "J&K", "PS-PDG")


def _kernel_names():
    from repro.workloads import kernel_names

    return kernel_names()


#: argparse destination -> SessionConfig field, for the options a
#: subcommand passes through when (and only when) the user gave them.
_CONFIG_ARGUMENTS = {
    "function": "function_name",
    "workers": "workers",
    "seed": "seed",
    "backend": "backend",
    "schedule": "schedule",
    "chunk": "chunk",
    "opt": "opt_level",
    "compile_regions": "compile_regions",
    "calibrate": "calibrate",
    "profile_path": "profile_path",
}


def _build_session(program, args):
    """A session for a source path or a NAS kernel name."""
    overrides = {
        field: getattr(args, dest)
        for dest, field in _CONFIG_ARGUMENTS.items()
        if getattr(args, dest, None) is not None
    }
    machine = {
        field: getattr(args, field)
        for field in ("cores", "chunk_sizes")
        if getattr(args, field, None) is not None
    }
    try:
        if machine:
            overrides["machine"] = MachineModel(**machine)
        config = SessionConfig(**overrides)
    except ValueError as exc:  # a bad option, named by its own check
        raise SystemExit(f"error: {exc}") from None

    path = pathlib.Path(program)
    if path.exists():
        return Session.from_source(
            path.read_text(), name=path.stem, config=config
        )
    if program in _kernel_names():
        return Session.from_kernel(program, name=program, config=config)
    raise SystemExit(
        f"error: {program!r} is neither a source file nor a NAS kernel "
        f"(kernels: {', '.join(_kernel_names())})"
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_compile(args):
    session = _build_session(args.program, args)
    module = session.module
    if args.ir:
        from repro.ir.printer import print_module

        print(print_module(module))
    stats = session.diagnostics.stats("module")
    print(
        f"{session.config.name}: {stats.get('functions', '?')} functions, "
        f"{stats.get('instructions', '?')} instructions",
        file=sys.stderr if args.ir else sys.stdout,
    )
    if args.pspdg:
        print(f"PS-PDG: {session.pspdg.statistics()}")
    return 0


def _cmd_plan(args):
    session = _build_session(args.program, args)
    results = session.critical_paths()
    print(f"ideal-machine critical paths for {session.config.name!r}:")
    for name in _ABSTRACTION_ORDER:
        if name not in results:
            continue
        entry = results[name]
        speedup = entry["speedup"]
        ratio = f"{speedup:7.3f}x" if speedup else "   --   "
        print(f"  {name:10} CP={entry['critical_path']:>9}  {ratio}")
    plan = session.optimized_plan(args.abstraction)
    print()
    print(plan.describe())
    if session.config.opt_level:
        print()
        print(session.optimization(args.abstraction).report.describe())
    if args.diagnostics:
        print()
        print(session.describe())
    return 0


def _cmd_run(args):
    if not args.faults:
        return _run(args)
    from repro.runtime import faults, knobs

    # A malformed spec is an error before anything runs, on every backend.
    faults.FaultPlan.from_spec(args.faults)
    knobs.REPRO_FAULTS = args.faults
    try:
        return _run(args)
    finally:
        knobs.refresh()  # the fault plan must not outlive this command


def _run(args):
    session = _build_session(args.program, args)
    plan = None if args.plan in ("source", "OpenMP") else args.plan
    result = session.run(plan, workers=args.workers, seed=args.seed,
                         backend=args.backend, schedule=args.schedule,
                         chunk=args.chunk)
    for line in result.formatted_output():
        print(line)
    print(f"[{result.steps} dynamic instructions]", file=sys.stderr)
    if args.diagnostics:
        print(parallel_report(result.parallel_regions), file=sys.stderr)
        lowering = session.diagnostics.stats("compile_regions").get(
            "lowering"
        )
        if lowering:
            print(f"[lowering] {lowering}", file=sys.stderr)
    if args.verify:
        expected = session.execution.formatted_output()
        if result.formatted_output() == expected:
            print("[verify] parallel output matches sequential",
                  file=sys.stderr)
        else:
            print(
                f"[verify] MISMATCH: sequential said {expected}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_profile(args):
    """Print the calibration profile: measured vs. static coefficients."""
    from repro.planner.calibration import CalibrationStore
    from repro.planner.machine import DEFAULT_MACHINE

    store = CalibrationStore(args.profile_path)
    print(store.describe(DEFAULT_MACHINE))
    if args.program:
        session = _build_session(args.program, args)
        key = session.program_key()
        payload_bytes, compiled_speedup = store.region_feedback(key)
        print()
        print(f"region feedback for {session.config.name!r} ({key[:12]}…):")
        if not payload_bytes and not compiled_speedup:
            print("  (no observed regions for this program)")
        for label in sorted(set(payload_bytes) | set(compiled_speedup)):
            parts = []
            if label in payload_bytes:
                parts.append(f"bytes/dispatch={payload_bytes[label]}")
            if label in compiled_speedup:
                parts.append(f"compiled={compiled_speedup[label]:.2f}x")
            print(f"  {label:16} {' '.join(parts)}")
    return 0


def _cmd_knobs(args):
    from repro.runtime import knobs

    knobs.refresh()  # report what the *current* environment says
    for name, value in knobs.as_dict().items():
        print(f"{name}={value}")
    return 0


def _print_figure(rows, width, spec):
    """``(bench, figure row)`` pairs under a header of the row's columns."""
    columns = list(rows[0][1])
    header = f"{'bench':8} " + " ".join(f"{c:>{width}}" for c in columns)
    print(header)
    print("-" * len(header))
    for name, row in rows:
        cells = " ".join(f"{row[c]:>{width}{spec}}" for c in columns)
        print(f"{name:8} {cells}")


def _cmd_report(args):
    programs = args.programs or list(_kernel_names())
    sessions = [_build_session(program, args) for program in programs]

    print("Fig. 13 — total parallelization options considered")
    _print_figure(
        [(s.config.name, format_fig13_row(s.options())) for s in sessions],
        width=8, spec="",
    )

    print()
    print("Fig. 14 — critical-path reduction over OpenMP (ideal machine)")
    _print_figure(
        [(s.config.name, format_fig14_row(s.critical_paths()))
         for s in sessions],
        width=9, spec=".3f",
    )

    print()
    level = sessions[0].config.opt_level if sessions else 0
    print(f"Optimization summary at -O{int(level)} (PS-PDG plan)")
    header = (
        f"{'bench':8} {'regions':>8} {'fused':>6} {'sync-rm':>8} "
        f"{'serial':>7} {'tile':>5} "
        f"{'rej':>4} {'opt-ms':>7}"
    )
    print(header)
    print("-" * len(header))
    for session in sessions:
        result = session.optimization("PS-PDG")
        summary = result.report.summary()
        rejections = sum(result.report.rejection_counts().values())
        millis = sum(result.report.pass_seconds.values()) * 1000.0
        print(
            f"{session.config.name:8} {len(result.plan.regions):>8} "
            f"{summary['fused']:>6} {summary['syncs_removed']:>8} "
            f"{summary['serialized']:>7} {summary['tiled']:>5} "
            f"{rejections:>4} {millis:>7.1f}"
        )

    print()
    print("Per-pass wall time / rejections")
    passes = {}
    for session in sessions:
        report = session.optimization("PS-PDG").report
        counts = report.rejection_counts()
        for name, seconds in report.pass_seconds.items():
            total_s, total_r = passes.get(name, (0.0, 0))
            passes[name] = (total_s + seconds, total_r + counts.get(name, 0))
    header = f"{'pass':28} {'wall-ms':>8} {'rejected':>9}"
    print(header)
    print("-" * len(header))
    for name, (seconds, rejected) in sorted(passes.items()):
        print(f"{name:28} {seconds * 1000.0:>8.1f} {rejected:>9}")
    if not passes:
        print("(no passes ran at this level)")

    if args.diagnostics:
        for session in sessions:
            if session.config.compile_regions:
                _ = session.compiled_regions  # its row: how each loop lowered
            print()
            print(session.describe())
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_opt_argument(parser):
    parser.add_argument(
        "-O", "--opt", type=int, choices=(0, 1, 2, 3), default=None,
        help="optimization level: -O0 none, -O1 sync elimination + "
             "small-region serialization, -O2 adds parallel-region "
             "fusion, -O3 adds machine-model tiling (default: 0)",
    )


def _add_machine_arguments(parser):
    parser.add_argument(
        "--cores", type=int, default=None,
        help="machine-model core count (default: 56)",
    )
    parser.add_argument(
        "--chunk-sizes", type=int, nargs="+", default=None,
        dest="chunk_sizes", help="DOALL chunk sizes to consider",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PS-PDG pipeline: compile, plan, run, and report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile source to annotated IR (and optionally dump it)"
    )
    p_compile.add_argument("program", help="source file or NAS kernel name")
    p_compile.add_argument("--function", default=None)
    p_compile.add_argument(
        "--ir", action="store_true", help="print the IR module"
    )
    p_compile.add_argument(
        "--pspdg", action="store_true", help="also build and summarize the PS-PDG"
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_plan = sub.add_parser(
        "plan", help="select the best plan per abstraction (Fig. 14 machinery)"
    )
    p_plan.add_argument("program")
    p_plan.add_argument("--function", default=None)
    p_plan.add_argument(
        "--abstraction", default="PS-PDG",
        choices=("OpenMP", "PDG", "J&K", "PS-PDG"),
        help="whose chosen plan to print (default: PS-PDG)",
    )
    p_plan.add_argument(
        "--diagnostics", action="store_true",
        help="print the per-stage time/stats table",
    )
    _add_opt_argument(p_plan)
    _add_machine_arguments(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_run = sub.add_parser(
        "run", help="execute a plan on the simulated parallel machine"
    )
    p_run.add_argument("program")
    p_run.add_argument("--function", default=None)
    p_run.add_argument(
        "--plan", default="source",
        choices=("source", "OpenMP", "PDG", "J&K", "PS-PDG"),
        help="which plan to execute (default: the developer's source plan)",
    )
    p_run.add_argument("--workers", type=int, default=4)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--backend", default=None,
        choices=("simulated", "threads", "processes"),
        help="execution backend (default: simulated — the seeded "
             "interleaving oracle; threads/processes run for real)",
    )
    p_run.add_argument(
        "--schedule", default=None,
        choices=("static", "dynamic", "guided"),
        help="chunk schedule shared by all backends (default: static)",
    )
    p_run.add_argument(
        "--chunk", type=int, default=None,
        help="chunk-size override (default: each loop recipe's own)",
    )
    p_run.add_argument(
        "--compile", dest="compile_regions",
        action=argparse.BooleanOptionalAction, default=None,
        help="run region bodies through the exec-compiled codegen path "
             "(default: on; --no-compile runs everything on the "
             "interpreter)",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec for this run (same grammar as the "
             "REPRO_FAULTS knob, e.g. 'crash:region=0:worker=1'); the "
             "supervised processes backend retries/fails over and the "
             "--diagnostics table shows the recovery columns",
    )
    p_run.add_argument(
        "--calibrate", action=argparse.BooleanOptionalAction, default=None,
        help="distill this run's measurements into the calibration "
             "profile so later plans use measured coefficients "
             "(default: off)",
    )
    p_run.add_argument(
        "--profile", dest="profile_path", default=None, metavar="PATH",
        help="calibration profile JSON to load/append (default: none "
             "— in-memory only)",
    )
    p_run.add_argument(
        "--verify", action="store_true",
        help="check the parallel output against the sequential run",
    )
    p_run.add_argument(
        "--diagnostics", action="store_true",
        help="print the per-region, per-worker execution table",
    )
    _add_opt_argument(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser(
        "report", help="regenerate Fig. 13 + Fig. 14 tables"
    )
    p_report.add_argument(
        "programs", nargs="*",
        help="source files and/or kernel names (default: all NAS kernels)",
    )
    p_report.add_argument("--function", default=None)
    p_report.add_argument("--diagnostics", action="store_true")
    _add_opt_argument(p_report)
    _add_machine_arguments(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_profile = sub.add_parser(
        "profile", help="print the calibration profile: measured vs. "
                        "static machine-model coefficients"
    )
    p_profile.add_argument(
        "program", nargs="?", default=None,
        help="optional source file / kernel name: also print the "
             "per-region feedback remembered for that program",
    )
    p_profile.add_argument("--function", default=None)
    p_profile.add_argument(
        "--profile", dest="profile_path", default=None, metavar="PATH",
        help="profile JSON to read (default: none — the static model)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_knobs = sub.add_parser(
        "knobs", help="list the runtime's environment knobs and their "
                      "current values"
    )
    p_knobs.set_defaults(func=_cmd_knobs)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
