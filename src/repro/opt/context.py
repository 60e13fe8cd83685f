"""Shared state for one optimization run.

The passes all ask the same questions — which accesses does a loop
make, which memory dependences does it carry on an object, what recipe
would the runtime derive for it.  The function's analysis record
(``pspdg.pdg.analyses``, the one the graphs were built from) answers the
analysis questions, once per session however many times
:func:`repro.opt.price_plan` runs; the context adds what is per-run:
the machine model, the measured feedback, and the memo of the runtime
recipes derived so far.

Legality is deliberately grounded in the sequential memory dependences
(plus the affine subscript analysis they were built from): the PS-PDG
tells the planner what *may* run in parallel, but a transform that
rewrites the plan must prove it preserves the sequential semantics, and
those dependences are the representation of exactly those semantics.
"""

import functools

from repro.planner.recipes import parallelization_from_pspdg


class OptContext:
    """What the passes of one ``restructure_plan`` or ``price_plan`` call
    share."""

    def __init__(self, pspdg, machine, payload_bytes=None,
                 compile_regions=False, compiled_speedup=None):
        self.pspdg = pspdg
        #: The function's analysis record: loops, accesses, dependences.
        self.analyses = pspdg.pdg.analyses
        self.machine = machine
        # Measured bytes-on-wire per region label from a previous run's
        # ``payload_bytes`` stats; feeds the serialization cost term of
        # the small-region pass.  Optional: {} means "no measurements".
        self.payload_bytes = dict(payload_bytes) if payload_bytes else {}
        # Whether the runtime will execute region bodies through the
        # codegen path: per-step compute is cheaper, so the small-region
        # pass scales its cost estimates by the machine model's
        # ``compiled_speedup``.
        self.compile_regions = bool(compile_regions)
        # Measured compiled-over-interpreted step-rate ratio per region
        # label (``regionstats.region_feedback``); overrides the
        # machine model's ``compiled_speedup`` prior for regions the
        # runtime actually observed in both modes.
        self.compiled_speedup = (
            dict(compiled_speedup) if compiled_speedup else {}
        )
        self._recipes = {}

    @functools.cached_property
    def blocks_by_name(self):
        return {block.name: block for block in self.analyses.function.blocks}

    def recipe(self, header_name):
        """The runtime recipe the executor would derive for this loop."""
        if header_name not in self._recipes:
            self._recipes[header_name] = parallelization_from_pspdg(
                self.pspdg, self.analyses.loops_by_header[header_name]
            )
        return self._recipes[header_name]
