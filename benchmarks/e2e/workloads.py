"""The six workloads: what one operation is, on which programs, and why.

Every workload drives the system through its public entry points only
(``repro.Session`` properties and ``Session.run``,
``repro.runtime.run_parallel``, ``reset_codec_caches``) and passes the
optimization level, backend, worker count, schedule and compile switch
explicitly, so a later flip of a default cannot silently change what a
workload measures.  Load model: closed loop, one client, two workers,
the workload process pinned to one core (see ``worker.pin_to_one_core``).
"""

import dataclasses

from repro import Session
from repro.codegen import cache as codegen_cache
from repro.runtime import run_parallel
from repro.runtime.payload import reset_codec_caches

from catalogue import INTERPRETED_BY_DESIGN, NAS8, PLAN, output_matches
from layers import compile_counts, run_counts

WORKERS = 2
POOL_SIZE = 2
QUICK_PROGRAMS = ("EP", "dense8")

#: The pipeline in dependency order, one public call per stage, so each
#: span is that stage alone.  ``options`` is the Fig. 13 enumeration: no
#: run needs it, so only ``compile-cold`` asks for it; ``codegen`` is
#: skipped where nothing runs compiled.
_STAGES = (
    ("frontend.compile_source", lambda s: s.module, None),
    ("emulator.profile", lambda s: s.execution, None),
    ("analysis.alias", lambda s: s.alias, None),
    ("analysis.loops", lambda s: s.loops, None),
    ("pdg.build", lambda s: s.pdg, None),
    ("core.pspdg_build", lambda s: s.pspdg, None),
    ("planner.views", lambda s: s.views, None),
    ("planner.critical_paths", lambda s: s.critical_paths(), None),
    ("planner.options", lambda s: s.options(), "options"),
    ("opt.optimize", lambda s: s.optimizations, None),
    ("runtime.recipes", lambda s: s.region_recipes, None),
    ("codegen.compile_regions", lambda s: s.compiled_regions, "codegen"),
    # A second plan() on the now-warm session: pure key hashing.
    ("pipeline.cache_hit", lambda s: s.plan(PLAN), None),
)


def compile_program(program, tracer, skip=(), **config):
    """Source text to a planned (and, unless skipped, compiled) Session."""
    session = Session.from_source(
        program.text, name=program.name, workers=WORKERS,
        schedule="static", **config,
    )
    for name, build, tag in _STAGES:
        if tag not in skip:
            with tracer.span(name):
                build(session)
    return session


@dataclasses.dataclass
class Op:
    """One program's operation within a workload.

    ``run(tracer)`` is the timed call; ``reset`` runs untimed before it;
    ``check(value, expected)`` returns why the operation failed, or
    ``None``; ``span`` names the operation's root span and
    ``counts(value)`` gives the per-layer counts recorded on it.
    """

    program: object
    span: str
    run: callable
    check: callable
    counts: callable
    reset: callable = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple
    #: ``(program, seed, tracer) -> Op``; for the run workloads this is
    #: where the program is compiled and planned (set-up, not timed).
    make_op: callable
    #: Programs warmed up (two checked, untimed operations each) before
    #: timing; ``None``: all of them.
    warm: tuple = None
    #: Programs whose operation is counted, and how often (the median
    #: is kept): three ride out a pool recycle landing in one of them,
    #: one is enough where the count repeats exactly.
    counted: tuple = None
    count_reps: int = 3


def _check_compile(session, expected):
    execution = session.execution
    if not output_matches(execution.output, expected["output"]):
        return f"profile output {execution.output!r} != expected"
    if execution.steps != expected["steps"]:
        return f"profile ran {execution.steps} steps, expected " \
               f"{expected['steps']}"
    fallback = session.compiled_regions["fallback"]
    if fallback:
        return f"codegen refused loops {fallback}"
    return None


def _check_run(program, compiled):
    allowed = INTERPRETED_BY_DESIGN.get(program.name, 0)

    def check(result, expected):
        if not output_matches(result.output, expected["output"]):
            return f"output {result.output!r} != expected"
        regions = result.parallel_regions
        # A supervised retry that recovered is not a failure: sizing saw
        # one on a fault-free run in about 7000 ``run-procs-warm``
        # operations (the pool re-forks from a threaded parent), and it
        # shows as ``runtime.backends.retries``.  A failover means the
        # region ran on another backend than the workload names.
        if sum(region["failovers"] for region in regions):
            return "failover on a fault-free run"
        if not compiled:
            return None
        if sum(region["codegen_fallbacks"] for region in regions):
            return "codegen fallback in a compiled run"
        interpreted = sum(region["interpreted_chunks"] for region in regions)
        if interpreted > allowed:
            return f"{interpreted} chunks ran interpreted, {allowed} allowed"
        if result.sequence_stats["interpreted"]:
            return "a sequential stretch ran interpreted"
        return None

    return check


def _compile_cold(program, seed, tracer):
    def reset():
        # The lowered-source and module-codec caches are keyed by
        # content and outlive a Session; drop them so every operation
        # lowers and hashes for real.
        codegen_cache.reset()
        reset_codec_caches()

    def run(op_tracer):
        return compile_program(
            program, op_tracer, opt_level=3, compile_regions=True
        )

    return Op(program, "session.compile", run, _check_compile,
              compile_counts, reset)


def _run_workload(backend, compiled, cold=False):
    """``make_op`` of a run workload: plan once, then run per operation.

    The Session plans only the abstraction it executes and at ``-O2``;
    ``compile_regions`` goes into the config as well as the call, as the
    CLI's ``--compile`` does, so the plan is priced for the engine that
    runs it.
    """

    def make_op(program, seed, tracer):
        skip = ("options",) if compiled else ("options", "codegen")
        with tracer.span("session.compile", program=program.name,
                         rep="setup") as record:
            session = compile_program(
                program, tracer, skip=skip, opt_level=2,
                compile_regions=compiled, abstractions=(PLAN,),
            )
        if record is not None:
            record["counts"] = compile_counts(session)

        def run_warm(op_tracer):
            return session.run(
                PLAN, workers=WORKERS, seed=seed, backend=backend,
                schedule="static", compile_regions=compiled,
            )

        def run_cold(op_tracer):
            # First contact: module re-pickled and re-shipped, full-state
            # prelude, no resident stream — on the same process pool.
            reset_codec_caches()
            return run_parallel(
                session.module, session.region_recipes[PLAN], "main",
                workers=WORKERS, seed=seed, backend=backend,
                schedule="static", pool_size=POOL_SIZE, prelude=None,
                compile_regions=compiled,
            )

        return Op(program, "session.run", run_cold if cold else run_warm,
                  _check_run(program, compiled), run_counts)

    return make_op


#: A counted operation costs four to five times a timed one, so calls
#: are counted on the three cheapest kernels: one region (EP), reductions
#: and a critical section (IS), five regions and a critical section (SP).
LIGHT = ("EP", "IS", "SP")

WORKLOADS = {
    workload.name: workload
    for workload in (
        # Nothing stays warm between cold compiles; the warm-ups only
        # get the lazy imports out of the first timed operation and
        # give the set-up time something steadier than imports to be.
        Workload("compile-cold", NAS8, _compile_cold, warm=LIGHT,
                 counted=LIGHT, count_reps=1),
        Workload("run-threads", NAS8, _run_workload("threads", True),
                 counted=LIGHT),
        # One program: its count has no other programs' to average with,
        # and moves in steps with how many pool threads a region spawned.
        Workload("run-dense", ("dense96",), _run_workload("threads", True),
                 count_reps=9),
        Workload("run-procs-warm", NAS8 + ("dense48",),
                 _run_workload("processes", True), counted=LIGHT),
        Workload("run-procs-cold", NAS8 + ("dense48",),
                 _run_workload("processes", True, cold=True),
                 counted=LIGHT),
        # One thread, seeded interleaving: the count repeats exactly.
        Workload("run-oracle", NAS8, _run_workload("simulated", False),
                 counted=LIGHT, count_reps=1),
    )
}
