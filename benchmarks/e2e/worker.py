"""One workload in one fresh process: set up, warm up, measure, report.

Started by ``run.py`` with a scrubbed environment.  The process issues
operations one after another (closed loop, one client) until
``--seconds`` have passed, checks every operation's output against the
committed reference, and prints one JSON object as its last line.

Passes, by ``--trace``:

``0``     an untraced pass of ``--seconds``, then the count pass.
``1``     a traced pass of ``--seconds`` whose rounds alternate between
          traced and untraced, so the tracing overhead is a ratio taken
          inside one process.
``both``  the untraced pass, the count pass, then a traced pass a third
          as long — one set-up for every number.
"""

import time

_PROCESS_START = time.perf_counter()  # setup_s includes the imports below

import argparse
import json
import multiprocessing
import os
import random
import resource
import statistics
import sys
import traceback

import benchenv
import catalogue
import layers
import refclock
from spans import NullTracer, Tracer
from workloads import QUICK_PROGRAMS, WORKLOADS

OUT_DIR = benchenv.HERE / "out"

#: Reference-clock time spent after an operation, as a share of the
#: operation's own time, and its cap.
REF_SHARE = 0.1
REF_CAP_S = 0.3
NULL = NullTracer()


class Ledger:
    """Runs operations, checks each one, and keeps the failure list."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def attempt(self, op, tracer, rep, profile=None):
        """Run ``op`` once; its wall time, or ``None`` if it failed.

        ``profile`` is installed with :func:`sys.setprofile` around the
        operation alone, not around its check.
        """
        name = op.program.name
        self.attempted += 1
        if op.reset is not None:
            op.reset()
        try:
            start = time.perf_counter()
            with tracer.span(op.span, program=name, rep=rep) as record:
                sys.setprofile(profile)
                try:
                    value = op.run(tracer)
                finally:
                    sys.setprofile(None)
            seconds = time.perf_counter() - start
            why = op.check(value, self.expected[name])
        except Exception:
            # The loop must outlive a broken operation to report it.
            why = traceback.format_exc()
        if why is not None:
            self.failures.append({"program": name, "rep": rep, "why": why})
            return None
        if record is not None:
            record["counts"] = op.counts(value)
        return seconds


def measure(ops, ledger, seconds, rng, tracers, min_rounds):
    """Issue operations round after round until ``seconds`` have passed.

    A round visits every program once, in an order drawn from ``rng``;
    round ``n`` runs under ``tracers[n % len(tracers)]``.  The reference
    clock is sampled between consecutive operations.  Returns program ->
    list of ``(seconds, ref_before, ref_after, traced)``.
    """
    samples = {op.program.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    ref = refclock.sample(0)
    rounds = 0
    while True:
        tracer = tracers[rounds % len(tracers)]
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if rounds >= min_rounds and time.perf_counter() >= deadline:
                return samples
            name = op.program.name
            taken = ledger.attempt(op, tracer, rep=len(samples[name]))
            ref_after = refclock.sample(
                min(REF_SHARE * (taken or 0), REF_CAP_S)
            )
            if taken is not None:
                samples[name].append(
                    (taken, ref, ref_after, tracer is not NULL)
                )
            ref = ref_after
        rounds += 1


class SetupClock:
    """Set-up time, step by step, in multiples of the reference loop.

    Raw seconds of the same set-up differed by 80 % between two sizing
    sweeps an hour apart, so set-up is clocked like an operation: each
    step is divided by the reference loop's time around it.  ``setup_s``
    is the sum, converted back to seconds at the loop's nominal speed.
    """

    def __init__(self, start):
        self._mark = start
        self._ref = None
        self.relative = 0.0
        self.wall = 0.0

    def lap(self):
        """Close the step that began at the previous lap (or at start)."""
        step = time.perf_counter() - self._mark
        ref_after = refclock.sample(min(REF_SHARE * step, REF_CAP_S))
        ref_before = ref_after if self._ref is None else self._ref
        self.relative += step / ((ref_before + ref_after) / 2)
        self.wall += step
        self._ref = ref_after
        self._mark = time.perf_counter()


def relative(sample):
    """An operation's time in multiples of the reference loop's."""
    seconds, ref_before, ref_after, _traced = sample
    return seconds / ((ref_before + ref_after) / 2)


def relative_medians(samples, traced):
    """Program -> median relative time over its (un)traced samples."""
    return {
        name: statistics.median(
            relative(s) for s in program_samples if s[3] is traced
        )
        for name, program_samples in samples.items()
        if any(s[3] is traced for s in program_samples)
    }


def p90(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def count_calls(ops, ledger, reps):
    """Python-level ``call`` + ``c_call`` events of one operation each.

    Counted on the dispatching thread only, in its own pass because the
    hook slows an operation four- to fivefold.  Summed over ``ops`` of
    the per-program median over ``reps`` counted operations.
    """
    total = 0
    for op in ops:
        counts = []
        for rep in range(reps):
            events = [0]

            def hook(frame, event, arg, events=events):
                if event == "call" or event == "c_call":
                    events[0] += 1

            if ledger.attempt(op, NULL, f"count{rep}", hook) is not None:
                counts.append(events[0])
        if counts:
            total += statistics.median(counts)
    return total


def pin_to_one_core():
    """Keep this process, its threads and its pool workers on one core.

    Two workers on one core is not what the machine model assumes, but
    it is what this box can repeat: its two virtual CPUs speed up and
    slow down independently with the neighbours' load, and every
    cross-CPU hand-off (the interpreter lock between worker threads, a
    pipe between pool processes) then moves with it.  Sizing runs spread
    22 % on ``run-procs-warm`` and 19 % on ``run-dense`` unpinned, 5 %
    and 6 % pinned.  The last CPU is the one least used by the kernel.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _vm_hwm_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb():
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # RUSAGE_CHILDREN covers reaped children only (recycled pools); the
    # live pool workers are read from /proc.
    children = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    children += [
        _vm_hwm_kib(child.pid) for child in multiprocessing.active_children()
    ]
    return (own + max(children)) / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument(
        "--quick", action="store_true",
        help="two tiny programs, two rounds per pass, no time limit",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    benchenv.check_env()
    cores = benchenv.nproc()
    pin_to_one_core()
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tracing = args.trace != "0"
    tracer = Tracer(workload.name) if tracing else NULL

    # -- set-up: programs, references, plans, pool, warm-ups -----------------
    setup = SetupClock(_PROCESS_START)
    names = QUICK_PROGRAMS if args.quick else workload.programs
    programs = [catalogue.load_program(name) for name in names]
    ledger = Ledger({p.name: catalogue.load_expected(p) for p in programs})
    setup.lap()
    ops = []
    for program in programs:
        ops.append(workload.make_op(program, args.seed, tracer))
        setup.lap()

    def chosen(subset):
        if args.quick or subset is None:
            return ops
        return [op for op in ops if op.program.name in subset]

    for op in chosen(workload.warm):
        for rep in range(2):
            ledger.attempt(op, NULL, f"warmup{rep}")
        setup.lap()

    # -- the passes -----------------------------------------------------------
    seconds = 0.0 if args.quick else args.seconds
    values = {"setup_s": setup.relative * refclock.NOMINAL_S}
    samples = {}
    if args.trace != "1":
        samples = measure(ops, ledger, seconds, rng, [NULL],
                          min_rounds=2 if args.quick else 1)
        values["op_rel"] = statistics.geometric_mean(
            relative_medians(samples, traced=False).values()
        )
        values["op_calls"] = count_calls(
            chosen(workload.counted), ledger,
            1 if args.quick else workload.count_reps,
        )
        values["peak_rss_mb"] = peak_rss_mb()
    if tracing:
        traced = measure(
            ops, ledger, seconds if args.trace == "1" else seconds / 3,
            rng, [tracer, NULL], min_rounds=2,
        )
        with_spans = relative_medians(traced, traced=True)
        without = relative_medians(traced, traced=False)
        values.update(layers.summarize(layers.span_samples(tracer)))
        values["trace_overhead_rel"] = statistics.geometric_mean(
            with_spans[name] / without[name]
            for name in with_spans if name in without
        )
        for name, program_samples in traced.items():
            samples.setdefault(name, []).extend(program_samples)
        values["session.op_p90_rel"] = statistics.geometric_mean(
            p90([relative(s) for s in program_samples])
            for program_samples in samples.values()
        )

    # -- report ---------------------------------------------------------------
    for failure in ledger.failures[:5]:
        print(f"FAILED {failure['program']} rep {failure['rep']}: "
              f"{failure['why']}", file=sys.stderr)
    wanted = []
    if args.trace != "1":
        wanted += spec["end_to_end"]
    if tracing:
        wanted += spec["per_layer"]
    metrics = {
        metric["name"]: {
            "value": values.get(metric["name"], 0),
            "unit": metric["unit"],
        }
        for metric in wanted
    }
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    refs = [ref for program_samples in samples.values()
            for s in program_samples for ref in s[1:3]]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({
        **result,
        **benchenv.provenance(cores),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "ref_clock_median_s": statistics.median(refs),
        "setup_wall_s": setup.wall,
        "reps": {name: len(s) for name, s in samples.items()},
        "failures": ledger.failures,
        "samples": samples,
    }, indent=1) + "\n")
    if tracing:
        tracer.write_jsonl(OUT_DIR / f"spans-{workload.name}.jsonl")
        tracer.write_chrome(OUT_DIR / f"chrome-{workload.name}.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (benchenv.BenchEnvError, catalogue.ExpectedOutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
