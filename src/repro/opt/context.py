"""Shared analysis state for one optimization run.

The passes all ask the same questions — which loops are executable, what
recipe would the runtime derive for a loop, which memory dependences does
the *sequential* PDG record on an object — so the context computes each
answer once per :func:`repro.opt.optimize_plan` call and memoizes it.

Legality is deliberately grounded in the sequential PDG's memory edges
(plus the affine subscript analysis those edges were built from): the
PS-PDG tells the planner what *may* run in parallel, but a transform that
rewrites the plan must prove it preserves the sequential semantics, and
the PDG is the representation of exactly those semantics.
"""

from repro.analysis.loops import find_natural_loops
from repro.analysis.subscripts import induction_alloca_map
from repro.planner.plans import TECH_DOALL
from repro.planner.recipes import (
    RecipeAnalyses,
    parallelization_from_pspdg,
    storage_object,
)


class OptContext:
    """Analyses shared by the passes of one ``optimize_plan`` call."""

    def __init__(self, function, module, pdg, pspdg, loops, machine,
                 payload_bytes=None, prelude_warm=None,
                 compile_regions=False, compiled_speedup=None,
                 speculate=True):
        self.function = function
        self.module = module
        self.pdg = pdg
        self.pspdg = pspdg
        self.loops = list(loops) if loops is not None else find_natural_loops(
            function
        )
        self.machine = machine
        # Measured bytes-on-wire per region label from a previous run's
        # ``payload_bytes`` stats; feeds the serialization cost term of
        # the small-region pass.  Optional: {} means "no measurements".
        self.payload_bytes = dict(payload_bytes) if payload_bytes else {}
        # Measured resident-prelude hit fraction per region label
        # (``prelude_hits / payloads``): discounts the serialization
        # cost for regions whose shared state stays cached pool-side.
        self.prelude_warm = dict(prelude_warm) if prelude_warm else {}
        # Whether the runtime will execute region bodies through the
        # codegen path: per-step compute is cheaper, so the small-region
        # pass scales its cost estimates by the machine model's
        # ``compiled_speedup``.
        self.compile_regions = bool(compile_regions)
        # Measured compiled-over-interpreted step-rate ratio per region
        # label (``diagnostics.payload_feedback()``); overrides the
        # machine model's ``compiled_speedup`` prior for regions the
        # runtime actually observed in both modes.
        self.compiled_speedup = (
            dict(compiled_speedup) if compiled_speedup else {}
        )
        # Whether a pass may apply a transform on an inconclusive
        # legality verdict (for the oracle-validation pass to settle).
        self.speculate = bool(speculate)
        self.loops_by_header = {
            loop.header.name: loop for loop in self.loops
        }
        self.blocks_by_name = {
            block.name: block for block in function.blocks
        }
        self._iv_map = induction_alloca_map(self.loops)
        self._recipes = {}
        self._analyses = None
        self._accesses_by_loop = {}
        self._memory_edges = None

    # -- runtime recipe derivation (memoized per loop) ------------------------

    @property
    def analyses(self):
        if self._analyses is None:
            self._analyses = RecipeAnalyses(self.function, self.module)
        return self._analyses

    def recipe(self, header_name):
        """The runtime recipe the executor would derive for this loop."""
        if header_name not in self._recipes:
            loop = self.loops_by_header[header_name]
            self._recipes[header_name] = parallelization_from_pspdg(
                self.pspdg, loop, self.module, self.analyses
            )
        return self._recipes[header_name]

    def storage_object(self, storage):
        return storage_object(self.analyses.alias, storage)

    # -- sequential-PDG dependence queries ------------------------------------

    def memory_edges(self):
        if self._memory_edges is None:
            self._memory_edges = self.pdg.memory_edges()
        return self._memory_edges

    def carried_edges_at(self, loop):
        """PDG memory edges carried at ``loop`` (matched by header name)."""
        header = loop.header.name
        return [
            edge
            for edge in self.memory_edges()
            if any(
                carried.header.name == header
                for carried in edge.carried_loops
            )
        ]

    # -- per-loop memory accesses with affine offsets -------------------------

    def loop_accesses(self, loop):
        """object -> [(instruction, is_write, AffineExpr|None)] in ``loop``."""
        header = loop.header.name
        if header not in self._accesses_by_loop:
            by_object = {}
            for access in self.analyses.accesses:
                if access.instruction.parent not in loop.blocks:
                    continue
                by_object.setdefault(access.obj, []).append(
                    (access.instruction, access.is_write, access.offset)
                )
            self._accesses_by_loop[header] = by_object
        return self._accesses_by_loop[header]

    # -- plan structure --------------------------------------------------------

    def executable_doall_headers(self, plan):
        """Headers the runtime would dispatch, in control-flow order.

        Mirrors the executor's historical selection: canonical-form DOALL
        loops not nested inside another planned canonical DOALL loop.
        """

        def inside_planned_parent(loop):
            parent = loop.parent
            while parent is not None:
                parent_plan = plan.plan_for(parent.header.name)
                if (
                    parent_plan is not None
                    and parent_plan.technique == TECH_DOALL
                    and parent.canonical is not None
                ):
                    return True
                parent = parent.parent
            return False

        headers = []
        for loop in self.loops:  # already in header-block order
            loop_plan = plan.plan_for(loop.header.name)
            if loop_plan is None or loop_plan.technique != TECH_DOALL:
                continue
            if loop.canonical is None or inside_planned_parent(loop):
                continue
            headers.append(loop.header.name)
        return headers
