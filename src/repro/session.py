"""``repro.Session`` — the staged, cached pipeline API.

One session owns one program and materializes the paper's Fig. 12
pipeline lazily, exactly once per artifact::

    from repro import Session

    s = Session.from_source(source_text, name="demo")
    s.pspdg                  # compiles, profiles, builds PDG + PS-PDG
    plan = s.plan()          # best PS-PDG plan by ideal critical path
    result = s.run(plan)     # validated simulated-parallel execution

Every property triggers only the stages it needs (module -> profile ->
pdg -> pspdg -> views -> options / critical paths); artifacts live in a
content-hash keyed :class:`~repro.pipeline.cache.PipelineCache`, so a
second ``s.plan()`` or ``s.options()`` performs zero rebuilds — the hot
path of every benchmark.  Per-stage wall time and artifact statistics
are recorded in ``s.diagnostics``.  Reassigning ``s.source`` or calling
``s.reconfigure(...)`` re-keys the affected stages; nothing stale can be
returned.
"""

from repro.opt import OptLevel, optimize_plan
from repro.pipeline.cache import PipelineCache, content_key
from repro.pipeline.config import SessionConfig
from repro.pipeline.diagnostics import Diagnostics
from repro.pipeline.stages import STAGES
from repro.planner.calibration import ReplanContext
from repro.planner.critical_path import CriticalPathEvaluator
from repro.planner.options import count_options
from repro.planner.plans import (
    abstraction_plan,
    loop_uid_map,
    openmp_source_plan,
)
from repro.planner.recipes import recipes_from_annotations, recipes_from_plan
from repro.runtime.executor import run_parallel

#: Config fields each stage's *own* builder reads.  A stage's cache key
#: covers these plus — transitively through the stage graph's ``deps``
#: edges — every upstream stage's fields, so changing e.g. the config
#: ``name`` (which re-keys the ``module`` stage) re-keys everything
#: downstream, while a machine-model change re-enumerates options
#: without invalidating the PS-PDG.
_STAGE_PARAMS = {
    "module": ("name",),
    "function": ("function_name",),
    "profile": ("function_name",),
    "alias": (),
    "pdg": (),
    "loops": (),
    "pspdg": (),
    "views": ("abstractions",),
    # The calibration stage reads the base machine plus the calibration
    # switches; the *measured* coefficients are not config — they travel
    # in every calibrated stage's key as the store-version extra (see
    # ``_stage_key``).
    "calibrate": ("machine", "calibrate", "profile_path"),
    # ``optimize`` re-runs the pass pipeline when the level, the machine
    # model (cost thresholds), or the planning knobs change — and only
    # then: the graph stages upstream keep their keys.  Its builder
    # reaches ``critical_paths`` through the session, so that query's
    # key fields — including ``abstractions``, which decides the views
    # the planner iterates — are folded in here explicitly.
    "optimize": (
        "opt_level",
        "machine",
        "abstractions",
        "name",
        "plan_hierarchical",
        "plan_all_loops",
        # The small-region pass scales cost estimates by the machine's
        # compiled speedup when region compilation is on.
        "compile_regions",
    ),
    "recipes": (),
    "compile_regions": ("compile_regions",),
    # Query stages: the effective machine/min_coverage of ``options``
    # travel as explicit key extras, not config fields.
    "options": ("name",),
    "critical_paths": ("name", "plan_hierarchical", "plan_all_loops"),
}

#: Upstream stages of the query methods (not in STAGES themselves).
_QUERY_DEPS = {
    "options": ("function", "loops", "profile", "views"),
    "critical_paths": ("function", "loops", "profile", "views"),
}

#: Stages whose artifact depends on the calibration store's *contents*
#: (not just config): their cache keys carry the store version, so a new
#: observation re-prices plans while the graph stages upstream stay put.
_CALIBRATED_STAGES = frozenset(
    {"calibrate", "optimize", "recipes", "compile_regions"}
)


def _key_fields(stage_name, _cache={}):
    """Config fields covering ``stage_name`` and its transitive deps."""
    if stage_name not in _cache:
        fields = set(_STAGE_PARAMS.get(stage_name, ()))
        deps = (
            STAGES[stage_name].deps
            if stage_name in STAGES
            else _QUERY_DEPS[stage_name]
        )
        for dep in deps:
            fields.update(_key_fields(dep))
        _cache[stage_name] = tuple(sorted(fields))
    return _cache[stage_name]


class Session:
    """Owns one program; materializes pipeline artifacts lazily, once."""

    def __init__(self, source=None, module=None, config=None, **overrides):
        if (source is None) == (module is None):
            raise ValueError("provide exactly one of source= or module=")
        config = config if config is not None else SessionConfig()
        if overrides:
            config = config.derive(**overrides)
        self._source = source
        self._module = module
        self._generation = 0
        self.config = config
        self.cache = PipelineCache()
        self.diagnostics = Diagnostics()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_source(cls, source, name=None, config=None, **overrides):
        """Session over MiniOMP/Cilk source text.

        An explicit ``name=`` wins; otherwise the name comes from
        ``config``/``overrides`` (default: "session").
        """
        if name is not None:
            overrides.setdefault("name", name)
        return cls(source=source, config=config, **overrides)

    @classmethod
    def from_module(cls, module, name=None, config=None, **overrides):
        """Session over an already-compiled IR module.

        Defaults the session name to the module's name unless the
        caller supplies one (directly or via ``config``).
        """
        if name is None and config is None and "name" not in overrides:
            name = getattr(module, "name", None)
        if name is not None:
            overrides.setdefault("name", name)
        return cls(module=module, config=config, **overrides)

    @classmethod
    def from_kernel(cls, kernel_name, config=None, **overrides):
        """Session over one of the NAS mini-kernels ("IS", "MG", ...)."""
        from repro.workloads import build_kernel

        if config is None:
            overrides.setdefault("name", kernel_name)
        return cls(module=build_kernel(kernel_name), config=config,
                   **overrides)

    # -- cache plumbing -------------------------------------------------------

    def _source_identity(self):
        if self._source is not None:
            return content_key(self._source)
        return f"module:{id(self._module)}"

    def _stage_key(self, stage_name, extra=()):
        params = tuple(
            (field, getattr(self.config, field))
            for field in _key_fields(stage_name)
        )
        if stage_name in _CALIBRATED_STAGES:
            token = (
                self.calibration.version if self.calibrate_enabled else 0
            )
            extra = (("calibration", token),) + tuple(extra)
        return content_key(
            self._source_identity(), self._generation, params, extra
        )

    def _stage(self, stage_name):
        stage = STAGES[stage_name]
        return self.cache.get_or_build(
            stage_name,
            self._stage_key(stage_name),
            lambda: stage.build(self),
            self.diagnostics,
            stage.stats,
        )

    def invalidate(self):
        """Drop every cached artifact; the next query rebuilds from source."""
        self._generation += 1
        return self.cache.invalidate()

    def reconfigure(self, **changes):
        """Apply config changes in place.

        Stages whose keys involve a changed field rebuild on next access;
        everything else (typically the expensive graph builds) stays
        cached.  Returns ``self`` for chaining.
        """
        self.config = self.config.derive(**changes)
        return self

    # -- the program ----------------------------------------------------------

    @property
    def source(self):
        return self._source

    @source.setter
    def source(self, text):
        """Replace the program; invalidates every downstream artifact."""
        self._source = text
        self._module = None
        self._generation += 1

    # -- pipeline artifacts (lazy, cached) ------------------------------------

    @property
    def module(self):
        """Annotated IR module (stage: frontend)."""
        return self._stage("module")

    @property
    def function(self):
        """The profiled entry-point function."""
        return self._stage("function")

    @property
    def execution(self):
        """Sequential :class:`ExecutionResult` with loop-nest profile."""
        return self._stage("profile")

    @property
    def profile(self):
        """The dynamic loop-nest profile of the sequential run."""
        return self.execution.profile

    @property
    def alias(self):
        """Module-wide alias analysis."""
        return self._stage("alias")

    @property
    def pdg(self):
        """The sequential Program Dependence Graph."""
        return self._stage("pdg")

    @property
    def loops(self):
        """Natural loops of the entry function."""
        return self._stage("loops")

    @property
    def pspdg(self):
        """The Parallel-Semantics PDG (the paper's contribution)."""
        return self._stage("pspdg")

    @property
    def views(self):
        """Abstraction name -> :class:`DependenceView` per the config."""
        return self._stage("views")

    @property
    def optimizations(self):
        """Abstraction name -> :class:`OptimizationResult` at the config's
        ``opt_level`` (stage: optimize)."""
        return self._stage("optimize")

    @property
    def region_recipes(self):
        """Abstraction name -> runtime region recipes (stage: recipes)."""
        return self._stage("recipes")

    @property
    def compile_regions_enabled(self):
        """The config's ``compile_regions`` knob, env-resolved.

        ``None`` defers to the ``REPRO_COMPILE`` environment flag, so an
        unconfigured session follows the same switch the bare runtime
        entry points do.
        """
        from repro.runtime import knobs

        configured = self.config.compile_regions
        return bool(knobs.REPRO_COMPILE) if configured is None \
            else bool(configured)

    @property
    def compiled_regions(self):
        """Codegen warm-up summary for the planned loops (stage:
        compile_regions)."""
        return self._stage("compile_regions")

    @property
    def calibrated(self):
        """Effective machine model + measured wire feedback (stage:
        calibrate).  Static defaults unless calibration is on."""
        return self._stage("calibrate")

    @property
    def calibrate_enabled(self):
        """The config's ``calibrate`` knob, env-resolved
        (``REPRO_CALIBRATE``)."""
        from repro.runtime import knobs

        configured = self.config.calibrate
        return bool(knobs.REPRO_CALIBRATE) if configured is None \
            else bool(configured)

    @property
    def adaptive_enabled(self):
        """The config's ``adaptive`` knob, env-resolved
        (``REPRO_ADAPTIVE``)."""
        from repro.runtime import knobs

        configured = self.config.adaptive
        return bool(knobs.REPRO_ADAPTIVE) if configured is None \
            else bool(configured)

    @property
    def profile_path(self):
        """Where the calibration profile persists (``None`` = in-memory).

        The config's ``profile_path`` wins; ``None`` defers to the
        ``REPRO_PROFILE`` environment knob; empty means no file.
        """
        from repro.runtime import knobs

        configured = self.config.profile_path
        if configured is None:
            configured = knobs.REPRO_PROFILE.value
        return configured or None

    @property
    def calibration(self):
        """This session's :class:`CalibrationStore` (lazy, session-scoped).

        One store for the session's lifetime, loaded from
        ``profile_path`` on first touch — so a warm session plans with
        the coefficients earlier sessions measured, and this session's
        observations accumulate on top.
        """
        store = getattr(self, "_calibration_obj", None)
        if store is None:
            from repro.planner.calibration import CalibrationStore

            store = CalibrationStore(self.profile_path)
            self._calibration_obj = store
        return store

    def program_key(self):
        """Content hash keying this program's calibration feedback.

        The module's wire key (its content identity on the process-pool
        wire), so profiles survive session restarts and never leak
        between different programs.
        """
        from repro.runtime.payload import module_codec

        return module_codec(self.module).key

    def optimization(self, abstraction="PS-PDG"):
        """The pass pipeline's result (plan + report) for one abstraction."""
        results = self.optimizations
        if abstraction not in results:
            raise KeyError(
                f"no optimized plan for abstraction {abstraction!r}; "
                f"have {sorted(results)}"
            )
        return results[abstraction]

    def optimized_plan(self, abstraction="PS-PDG"):
        """The chosen plan after the ``-O`` passes (regions populated)."""
        return self.optimization(abstraction).plan

    # -- planning queries ------------------------------------------------------

    def options(self, machine=None, min_coverage=None):
        """Fig. 13 option enumeration (cached per machine/coverage)."""
        machine = machine if machine is not None else self.config.machine
        if min_coverage is None:
            min_coverage = self.config.min_coverage
        key = self._stage_key("options", (machine, min_coverage))
        return self.cache.get_or_build(
            "options",
            key,
            lambda: count_options(
                self.config.name,
                self.function,
                self.loops,
                self.profile,
                self.views,
                machine,
                min_coverage,
            ),
            self.diagnostics,
            lambda report: dict(report.totals),
        )

    def critical_paths(self):
        """Fig. 14 per-abstraction critical paths, speedups, and plans."""
        return self.cache.get_or_build(
            "critical_paths",
            self._stage_key("critical_paths"),
            self._build_critical_paths,
            self.diagnostics,
            lambda results: {
                name: round(entry["speedup"], 3)
                for name, entry in results.items()
                if entry.get("speedup") is not None
            },
        )

    def _build_critical_paths(self):
        profile = self.profile
        config = self.config
        loops = self.loops
        uid_map = loop_uid_map(self.function, loops)

        def evaluator_factory(plan):
            return CriticalPathEvaluator(profile, plan)

        results = {}
        results["Sequential"] = {
            "critical_path": profile.shapes().total,
            "speedup": None,
        }
        openmp_plan = openmp_source_plan(self.function, uid_map)
        openmp_cp = evaluator_factory(openmp_plan).evaluate()
        results["OpenMP"] = {
            "critical_path": openmp_cp,
            "speedup": 1.0,
            "plan": openmp_plan,
        }
        for name, view in self.views.items():
            plan = abstraction_plan(
                name,
                self.function,
                view,
                evaluator_factory,
                loops,
                uid_map,
                hierarchical_inner=name in config.plan_hierarchical,
                plan_all_loops=name in config.plan_all_loops,
            )
            cp = evaluator_factory(plan).evaluate()
            results[name] = {
                "critical_path": cp,
                "speedup": openmp_cp / cp if cp else float("inf"),
                "plan": plan,
            }
        return results

    def plan(self, abstraction="PS-PDG"):
        """The chosen plan for ``abstraction`` ("OpenMP" for the source plan)."""
        results = self.critical_paths()
        if abstraction not in results:
            raise KeyError(
                f"no plan for abstraction {abstraction!r}; "
                f"have {sorted(results)}"
            )
        entry = results[abstraction]
        if "plan" not in entry:
            raise KeyError(f"{abstraction!r} has no executable plan")
        return entry["plan"]

    # -- execution -------------------------------------------------------------

    def run(self, plan=None, workers=None, seed=None, backend=None,
            schedule=None, chunk=None, opt=None, compile_regions=None,
            adaptive=None):
        """Execute the program under ``plan`` on a parallel backend.

        ``plan`` may be a :class:`ProgramPlan`, an abstraction name
        (planned — and ``-O``-optimized — on demand), or
        ``None``/"source" for the developer's OpenMP plan.  ``backend``
        ("simulated" | "threads" | "processes"), ``schedule`` ("static" |
        "dynamic" | "guided"), ``workers``, ``seed``, ``chunk``, and
        ``opt`` (the optimization level) default to the session config.
        Abstraction-name runs at the config's level reuse the cached
        ``optimize``/``recipes`` stages; an explicit different ``opt``
        optimizes on the fly without touching the caches.  The
        ``processes`` chunk pool is sized from the machine model's core
        count.  Per-region, per-worker timing is recorded in
        ``self.diagnostics`` (see ``diagnostics.parallel_report()``).

        ``adaptive`` (default: the config's ``adaptive`` knob) turns on
        mid-run replanning: dispatches whose measured timings diverge
        from the plan's predictions re-derive the remaining regions'
        cost decisions with a freshly calibrated machine model (see
        ``result.replan_events``).  With calibration on, the run's
        region stats are distilled into the session's
        :class:`CalibrationStore` afterwards (and persisted to
        ``profile_path``), so the *next* plan starts from measured
        coefficients.
        """
        config = self.config
        level = OptLevel.coerce(opt) if opt is not None else config.opt_level
        adaptive_on = (
            self.adaptive_enabled if adaptive is None else bool(adaptive)
        )
        compile_on = (
            self.compile_regions_enabled if compile_regions is None
            else bool(compile_regions)
        )
        if plan is None or plan in ("source", "OpenMP"):
            # Source-plan runs skip the codegen warm-up — it would drag
            # the whole planning pipeline in — and compile lazily.
            regions = recipes_from_annotations(self.function)
            base_plan = (
                openmp_source_plan(self.function) if adaptive_on else None
            )
        elif isinstance(plan, str):
            if compile_on:
                # Warm the codegen cache (and record its stage stats)
                # before the first region dispatch.
                self._stage("compile_regions")
            if level == config.opt_level:
                regions = self._cached_regions(plan)
            else:
                regions = self._regions_at_level(plan, level)
            base_plan = self.plan(plan) if adaptive_on else None
        else:
            # Explicit ProgramPlan: optimize against the session's
            # cached pdg/loops, then derive its recipes.
            base_plan = plan
            if level > OptLevel.O0 and not plan.regions:
                plan = self._optimize_plan_object(plan, level)
            regions = recipes_from_plan(
                self.module, self.pspdg, plan, self.function
            )
        replan = (
            self._replan_context(base_plan, level) if adaptive_on else None
        )
        result = run_parallel(
            self.module, regions, config.function_name,
            workers=workers if workers is not None else config.workers,
            seed=seed if seed is not None else config.seed,
            backend=backend if backend is not None else config.backend,
            schedule=schedule if schedule is not None else config.schedule,
            chunk=chunk if chunk is not None else config.chunk,
            pool_size=config.machine.cores,
            prelude=self._prelude_codec(),
            compile_regions=compile_on,
            quarantine=self._quarantine(),
            retry_budget=config.retry_budget,
            failover=config.failover,
            adaptive=adaptive_on,
            replan=replan,
        )
        for region in result.parallel_regions:
            self.diagnostics.record_parallel(region)
        if self.calibrate_enabled or adaptive_on:
            # Mid-run replans already fed the store up to the context's
            # ``calibrated_upto``; distill only the regions after that
            # so nothing is counted twice, then persist for warm
            # sessions.
            start = replan.calibrated_upto if replan is not None else 0
            self.calibration.observe_run(
                result.parallel_regions[start:],
                program_key=self.program_key(),
            )
            if self.calibrate_enabled and self.profile_path:
                self.calibration.save()
        return result

    def _replan_context(self, base_plan, level):
        """The planner context mid-run replanning re-optimizes against.

        Carries the session's cached analyses, the *unoptimized* base
        plan (``optimize_plan`` re-derives region descriptors from
        scratch every call), the effective machine model, the shared
        calibration store, and the per-label payload-bytes predictions
        the divergence detector compares measurements against.
        """
        calibrated = self.calibrated
        return ReplanContext(
            function=self.function,
            module=self.module,
            pdg=self.pdg,
            pspdg=self.pspdg,
            plan=base_plan,
            level=level,
            machine=calibrated["machine"],
            loops=self.loops,
            store=self.calibration,
            program_key=self.program_key(),
            predicted_bytes=dict(calibrated["payload_bytes"]),
        )

    def _prelude_codec(self):
        """This session's resident-prelude stream (processes backend).

        One codec for the session's lifetime: the pool workers' resident
        shared state — and its hash chain — survives across ``run``
        calls, so only the state a run boundary actually changed is
        re-shipped (the codec rebinds itself onto each fresh
        interpreter's storages by value diff).
        """
        codec = getattr(self, "_prelude_codec_obj", None)
        if codec is None:
            from repro.runtime.payload import PreludeCodec

            codec = PreludeCodec()
            self._prelude_codec_obj = codec
        return codec

    def _quarantine(self):
        """This session's degradation-ladder denylist.

        One :class:`~repro.runtime.faults.Quarantine` for the session's
        lifetime: a region that exhausted its processes retries and
        failed over is remembered (keyed by program content hash +
        region label), so warm re-runs skip straight to the rung that
        worked instead of re-paying the doomed retries.
        """
        quarantine = getattr(self, "_quarantine_obj", None)
        if quarantine is None:
            from repro.runtime.faults import Quarantine

            quarantine = Quarantine()
            self._quarantine_obj = quarantine
        return quarantine

    def _cached_regions(self, abstraction):
        recipes = self.region_recipes
        if abstraction not in recipes:
            # Raise the same error an unknown abstraction always raised.
            self.plan(abstraction)
            raise KeyError(f"{abstraction!r} has no executable plan")
        return recipes[abstraction]

    def _optimize_plan_object(self, plan, level):
        """Run the -O passes over an explicit plan, on cached artifacts."""
        calibrated = self.calibrated
        return optimize_plan(
            self.function,
            self.module,
            self.pdg,
            self.pspdg,
            plan,
            level,
            machine=calibrated["machine"],
            loops=self.loops,
            payload_bytes=calibrated["payload_bytes"] or None,
            prelude_warm=calibrated["prelude_warm"] or None,
            compiled_speedup=calibrated["compiled_speedup"] or None,
        ).plan

    def _regions_at_level(self, abstraction, level):
        """Regions for an explicit ``opt=`` override (cache-bypassing)."""
        optimized = self._optimize_plan_object(self.plan(abstraction), level)
        return recipes_from_plan(
            self.module, self.pspdg, optimized, self.function
        )

    # -- ablation / canonical form --------------------------------------------

    def signature(self):
        """Canonical signature of the full PS-PDG."""
        from repro.core.ablation import full
        from repro.core.canonical import signature

        return signature(full(self.pspdg))

    def reduced_signature(self, projection=None):
        """Signature after ablating features (Section 4 necessity knob).

        ``projection`` is a callable (e.g.
        :func:`repro.core.ablation.without_traits`); when omitted, the
        config's ``ablate_features`` are projected out.
        """
        from repro.core.ablation import project

        if projection is not None:
            return _canonical_signature(projection(self.pspdg))
        reduced = project(self.pspdg, self.config.ablate_features)
        return _canonical_signature(reduced)

    def describe(self):
        """One-line summary plus the per-stage diagnostics table."""
        header = (
            f"Session {self.config.name!r} "
            f"(function={self.config.function_name}, "
            f"cache entries={len(self.cache)}, "
            f"hits={self.cache.hits}, misses={self.cache.misses})"
        )
        return header + "\n" + self.diagnostics.report()

    def __repr__(self):
        origin = "source" if self._source is not None else "module"
        return (
            f"<Session {self.config.name!r} from {origin}, "
            f"{len(self.cache)} cached artifacts>"
        )


def _canonical_signature(reduced):
    from repro.core.canonical import signature

    return signature(reduced)
