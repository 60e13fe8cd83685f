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

from repro.core.ablation import full
from repro.core.canonical import signature
from repro.opt import OptLevel, optimize_plan
from repro.pipeline.cache import PipelineCache, content_key
from repro.pipeline.config import SessionConfig
from repro.pipeline.diagnostics import Diagnostics
from repro.pipeline.stages import KEY_PLANS, STAGES
from repro.planner.calibration import CalibrationStore, ReplanContext
from repro.planner.plans import loop_uid_map, openmp_source_plan
from repro.planner.recipes import recipes_from_annotations, recipes_from_plan
from repro.runtime.executor import run_parallel
from repro.runtime.payload import module_codec


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

    def _stage(self, stage_name, config=None):
        """The stage's artifact under ``config`` (default: the session's).

        The key hashes exactly the config fields the stage and its
        upstream closure declare (``KEY_PLANS``), and the builder is
        handed only the stage's own — see :mod:`repro.pipeline.stages`.
        """
        stage = STAGES[stage_name]
        config = config if config is not None else self.config
        fields, calibrated = KEY_PLANS[stage_name]
        params = tuple(
            (field, getattr(config, field)) for field in fields
        )
        # The *measured* coefficients are not config: they travel as
        # the store version, so a new observation re-prices plans.
        token = (
            self.calibration.version if calibrated and config.calibrate
            else 0
        )
        return self.cache.get_or_build(
            stage_name,
            content_key(
                self._source_identity(), self._generation, params, token
            ),
            lambda: stage.build(
                self, *[getattr(config, field) for field in stage.params]
            ),
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
    def analyses(self):
        """The entry function's analysis record: alias, loops, accesses,
        memory dependences and the per-loop queries, each computed once
        and read by every stage downstream."""
        return self._stage("analyses")

    @property
    def alias(self):
        """Module-wide alias analysis (the record's)."""
        return self._stage("alias")

    @property
    def pdg(self):
        """The sequential Program Dependence Graph."""
        return self._stage("pdg")

    @property
    def loops(self):
        """Natural loops of the entry function (the record's)."""
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
    def calibration(self):
        """This session's :class:`CalibrationStore` (lazy, session-scoped).

        One store for the session's lifetime, loaded from the config's
        ``profile_path`` on first touch — so a warm session plans with
        the coefficients earlier sessions measured, and this session's
        observations accumulate on top.
        """
        store = getattr(self, "_calibration_obj", None)
        if store is None:
            store = CalibrationStore(self.config.profile_path)
            self._calibration_obj = store
        return store

    def program_key(self):
        """Content hash keying this program's calibration feedback.

        The module's wire key (its content identity on the process-pool
        wire), so profiles survive session restarts and never leak
        between different programs.
        """
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
        overrides = {}
        if machine is not None:
            overrides["machine"] = machine
        if min_coverage is not None:
            overrides["min_coverage"] = min_coverage
        return self._stage(
            "options", self.config.derive(**overrides) if overrides else None
        )

    def critical_paths(self):
        """Fig. 14 per-abstraction critical paths, speedups, and plans."""
        return self._stage("critical_paths")

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
        (or an explicit plan) optimizes on the fly, priced for the run's
        engine, without touching the caches.  The
        ``processes`` chunk pool is sized from the machine model's core
        count.  Per-region, per-worker timing is in the result's
        ``parallel_regions`` (``util.regionstats.parallel_report``
        renders it); the session keeps none of it.

        ``adaptive`` (default: the config's ``adaptive``) turns on
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
        adaptive_on = bool(
            config.adaptive if adaptive is None else adaptive
        )
        compile_on = bool(
            config.compile_regions if compile_regions is None
            else compile_regions
        )
        if plan is None or plan in ("source", "OpenMP"):
            # Source-plan runs skip the codegen warm-up — it would drag
            # the whole planning pipeline in — and compile lazily.
            regions = recipes_from_annotations(self.function)
            base_plan = (
                openmp_source_plan(self.function, loop_uid_map(self.loops))
                if adaptive_on else None
            )
        elif isinstance(plan, str):
            if compile_on:
                # Warm the codegen cache (and record its stage stats)
                # before the first region dispatch.
                self._stage("compile_regions")
            if level == config.opt_level:
                regions = self._cached_regions(plan)
            else:
                optimized = self._optimized(
                    self.plan(plan), level, compile_on
                ).plan
                regions = recipes_from_plan(self.pspdg, optimized)
            base_plan = self.plan(plan) if adaptive_on else None
        else:
            # Explicit ProgramPlan: optimize against the session's
            # cached graphs, then derive its recipes.
            base_plan = plan
            if level > OptLevel.O0 and not plan.regions:
                plan = self._optimized(plan, level, compile_on).plan
            regions = recipes_from_plan(self.pspdg, plan)
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
            compile_regions=compile_on,
            adaptive=adaptive_on,
            replan=replan,
            forest={config.function_name: self.analyses.loops_by_header},
        )
        if config.calibrate or adaptive_on:
            # Mid-run replans already fed the store up to the context's
            # ``calibrated_upto``; distill only the regions after that
            # so nothing is counted twice, then persist for warm
            # sessions.
            start = replan.calibrated_upto if replan is not None else 0
            self.calibration.observe_run(
                result.parallel_regions[start:],
                program_key=self.program_key(),
            )
            if config.calibrate and config.profile_path:
                self.calibration.save()
        return result

    def _replan_context(self, base_plan, level):
        """The planner context mid-run replanning re-optimizes against.

        Carries the session's cached PS-PDG (and through it the PDG
        and the analysis record), the *unoptimized* base plan
        (``optimize_plan`` re-derives region descriptors from
        scratch every call), the effective machine model, the shared
        calibration store, and the per-label payload-bytes predictions
        the divergence detector compares measurements against.
        """
        calibrated = self.calibrated
        return ReplanContext(
            pspdg=self.pspdg,
            plan=base_plan,
            level=level,
            machine=calibrated["machine"],
            store=self.calibration,
            program_key=self.program_key(),
            predicted_bytes=dict(calibrated["payload_bytes"]),
        )

    def _cached_regions(self, abstraction):
        recipes = self.region_recipes
        if abstraction not in recipes:
            # Raise the same error an unknown abstraction always raised.
            self.plan(abstraction)
            raise KeyError(f"{abstraction!r} has no executable plan")
        return recipes[abstraction]

    def _optimized(self, plan, level, compile_regions):
        """``optimize_plan`` over ``plan`` on the cached artifacts, priced
        for the engine ``compile_regions`` names with the (possibly
        calibrated) machine model and wire feedback."""
        calibrated = self.calibrated
        return optimize_plan(
            self.pspdg,
            plan,
            level,
            machine=calibrated["machine"],
            payload_bytes=calibrated["payload_bytes"] or None,
            compiled_speedup=calibrated["compiled_speedup"] or None,
            compile_regions=compile_regions,
        )

    # -- ablation / canonical form --------------------------------------------

    def signature(self):
        """Canonical signature of the full PS-PDG."""
        return signature(full(self.pspdg))

    def reduced_signature(self, projection):
        """Signature after ablating features (Section 4 necessity knob).

        ``projection`` is a callable (e.g.
        :func:`repro.core.ablation.without_traits`).
        """
        return signature(projection(self.pspdg))

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

