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
plain dict keyed by ``(stage, the values of the config fields the
stage reads upstream and down, calibration token)``, so a
second ``s.plan()`` or ``s.options()`` performs zero rebuilds — the hot
path of every benchmark.  Per-stage runs, hits, wall time and artifact
statistics are recorded in ``s.diagnostics``.  ``s.reconfigure(...)``
re-keys the stages that read a changed field; nothing stale can be
returned.
"""

import hashlib
import time

from repro.core.ablation import full
from repro.core.canonical import signature
from repro.ir.printer import print_module
from repro.opt import OptLevel, price_plan, restructure_plan
from repro.pipeline.config import SessionConfig
from repro.pipeline.diagnostics import Diagnostics
from repro.pipeline.stages import KEY_PLANS, STAGES, VERSION, param_value
from repro.planner.calibration import CalibrationStore
from repro.planner.machine import compute_overlaps
from repro.runtime.executor import prepare_plan, run_parallel


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
        self.config = config
        self.diagnostics = Diagnostics()
        self._artifacts = {}  # memo key (see _key) -> stage artifact
        # stage -> (config, token, memo key): the key of the
        # stage's last lookup, so a warm query rebuilds no key.
        self._keys = {}
        # (level, engine, overlap) -> (config, what ``run`` stages under)
        self._run_configs = {}

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

    # -- the stage memo -------------------------------------------------------

    def _key(self, stage_name, config):
        """The memo key of ``stage_name`` under ``config``: the stage,
        what the builders read of the config fields the stage and its
        upstream closure declare (``KEY_PLANS``, ``param_value``) and
        the calibration token.  It
        is rebuilt only when the config object or the token moved since
        the stage's last lookup.
        """
        fields, source = KEY_PLANS[stage_name]
        # The *measured* coefficients are not config: they travel as
        # the store version, so a new observation re-prices plans, and
        # below the priced plans as the decisions they hold, so a
        # re-pricing that moves none rebuilds nothing further.
        token = 0
        if source is not None and config.calibrate:
            token = (
                self.calibration.version if source == VERSION
                else self._decisions(source, config)
            )
        memo = self._keys.get(stage_name)
        if memo is not None and memo[0] is config and memo[1] == token:
            return memo[2]
        key = (
            stage_name,
            tuple(param_value(config, field) for field in fields),
            token,
        )
        self._keys[stage_name] = (config, token, key)
        return key

    def _stage(self, stage_name, config=None):
        """The stage's artifact under ``config`` (default: the session's).

        A miss builds and times it; either way ``diagnostics`` counts
        it.  The builder is handed only the stage's own config fields —
        see :mod:`repro.pipeline.stages` — and reads upstream artifacts
        under ``config`` too, as its key says it does.
        """
        config = config if config is not None else self.config
        key = self._key(stage_name, config)
        try:
            artifact = self._artifacts[key]
        except KeyError:
            pass
        else:
            self.diagnostics.record_hit(stage_name)
            return artifact
        stage = STAGES[stage_name]
        started = time.perf_counter()
        # The builder reads upstream through the session's properties:
        # for the length of the build they answer under ``config``.
        outer, self.config = self.config, config
        try:
            artifact = stage.build(
                self, *[param_value(config, field) for field in stage.params]
            )
        finally:
            self.config = outer
        elapsed = time.perf_counter() - started
        self._artifacts[key] = artifact
        self.diagnostics.record_run(
            stage_name, elapsed,
            stage.stats(artifact) if stage.stats is not None else None,
        )
        return artifact

    def _decisions(self, source, config):
        """The decisions ``source``'s artifact holds (frozen values that
        compare by value)."""
        return STAGES[source].decisions(self._stage(source, config))

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
    def restructured(self):
        """Abstraction name -> its plan after the ``-O`` passes that read
        only the graphs (stage: restructure)."""
        return self._stage("restructure")

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

        The sha256 of the module's printed IR (annotations included), so
        profiles survive session restarts, never leak between different
        programs, and a module the pickler cannot walk has one too.
        """
        module = self.module
        memo = getattr(self, "_program_key", None)
        if memo is None or memo[0] is not module:
            digest = hashlib.sha256(print_module(module).encode()).hexdigest()
            memo = self._program_key = (module, digest)
        return memo[1]

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

    def options(self, machine=None):
        """Fig. 13 option enumeration (cached per machine)."""
        return self._stage(
            "options",
            self.config.derive(machine=machine) if machine is not None
            else None,
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
            schedule=None, chunk=None, opt=None, compile_regions=None):
        """Execute the program under ``plan`` on a parallel backend.

        ``plan`` may be a :class:`ProgramPlan`, an abstraction name
        (planned — and ``-O``-optimized — on demand), or
        ``None``/"source" for the developer's OpenMP plan.  ``backend``
        ("simulated" | "threads" | "processes"), ``schedule`` ("static" |
        "dynamic" | "guided"), ``workers``, ``seed``, ``chunk``, and
        ``opt`` (the optimization level) default to the session config.
        An abstraction-name run reads the ``compile_regions`` and
        ``recipes`` stages under the run's level, engine and backend —
        the config's own keys unless ``opt`` or ``compile_regions``
        differ, or ``backend`` prices otherwise (its workers overlap
        where the config's do not, or the reverse) — so an override is
        planned once and cached like any other config.  An explicit plan without regions is
        seeded and optimized at the run's level, priced for its engine
        and backend (on ``threads`` under a GIL, see
        :mod:`repro.opt.serialize`).  The
        ``processes`` chunk pool is sized from the machine model's core
        count.  Per-region, per-worker timing is in the result's
        ``parallel_regions`` (``util.regionstats.parallel_report``
        renders it); the session keeps none of it.

        A run dispatches every region as planned.  With calibration on,
        its region stats are distilled into the session's
        :class:`CalibrationStore` afterwards (and persisted to
        ``profile_path``), so the *next* plan starts from measured
        coefficients.
        """
        config = self.config
        level = OptLevel.coerce(opt) if opt is not None else config.opt_level
        compile_on = bool(
            config.compile_regions if compile_regions is None
            else compile_regions
        )
        backend = backend if backend is not None else config.backend
        if plan is None or plan in ("source", "OpenMP"):
            # Source-plan runs skip the codegen warm-up — it would drag
            # the whole planning pipeline in — and compile lazily.
            regions = self._stage("source_regions")
        elif isinstance(plan, str):
            staged = config
            if (level, compile_on, backend) != (
                config.opt_level, config.compile_regions, config.backend
            ):
                staged = self._run_config(level, compile_on, backend)
            if compile_on:
                # Warm the codegen cache (and record its stage stats)
                # before the first region dispatch.
                self._stage("compile_regions", staged)
            regions = self._cached_regions(plan, staged)
        else:
            # Explicit ProgramPlan: seed and optimize it against the
            # session's cached graphs, then prepare what it dispatches.
            if not plan.regions:
                plan = self._priced(
                    restructure_plan(self.pspdg, plan, level), compile_on,
                    compute_overlaps(backend),
                ).plan
            regions = prepare_plan(
                plan.dispatched(), self.function,
                self.analyses.loops_by_header,
            )
        result = run_parallel(
            self.module, regions, config.function_name,
            workers=workers if workers is not None else config.workers,
            seed=seed if seed is not None else config.seed,
            backend=backend,
            schedule=schedule if schedule is not None else config.schedule,
            chunk=chunk if chunk is not None else config.chunk,
            pool_size=config.machine.cores,
            compile_regions=compile_on,
            analyses=self.analyses,
        )
        if config.calibrate:
            # Distill the run, then persist it for warm sessions.
            self.calibration.observe_run(
                result.parallel_regions, program_key=self.program_key()
            )
            if config.profile_path:
                self.calibration.save()
        return result

    def _cached_regions(self, abstraction, config):
        recipes = self._stage("recipes", config)
        if abstraction not in recipes:
            # Raise the same error an unknown abstraction always raised.
            self.plan(abstraction)
            raise KeyError(f"{abstraction!r} has no executable plan")
        return recipes[abstraction]

    def _run_config(self, level, compile_on, backend):
        """The config a run that overrides the session's level, engine or
        backend stages its plan under: derived once per pricing (level,
        engine, overlap) while the session's config stands.  Its stage
        keys hold the overlap, not the backend, so a backend that prices
        as the config's shares the session's artifacts."""
        config = self.config
        wanted = (level, compile_on, compute_overlaps(backend))
        memo = self._run_configs.get(wanted)
        if memo is None or memo[0] is not config:
            memo = self._run_configs[wanted] = (config, config.derive(
                opt_level=level, compile_regions=compile_on, backend=backend
            ))
        return memo[1]

    def _priced(self, restructured, compile_regions, overlaps):
        """``price_plan`` over a restructured plan, for the engine
        ``compile_regions`` names and whether the workers of the backend
        that runs it overlap, with the (possibly calibrated) machine
        model and wire feedback."""
        calibrated = self.calibrated
        return price_plan(
            self.pspdg,
            restructured,
            machine=calibrated["machine"],
            payload_bytes=calibrated["payload_bytes"] or None,
            compiled_speedup=calibrated["compiled_speedup"] or None,
            compile_regions=compile_regions,
            overlaps=overlaps,
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
            f"artifacts={len(self._artifacts)})"
        )
        return header + "\n" + self.diagnostics.report()

    def __repr__(self):
        origin = "source" if self._source is not None else "module"
        return (
            f"<Session {self.config.name!r} from {origin}, "
            f"{len(self._artifacts)} cached artifacts>"
        )

