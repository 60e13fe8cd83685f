"""Oracle validation for speculative transforms.

A pass may apply a transform whose static side condition came back
*inconclusive* (a non-affine subscript the direction-vector test cannot
bound), marking the descriptor ``speculative``.  Such a plan must never
reach a real backend unchecked: this pass — always last in the ``-O3``
pipeline — executes the speculative regions on the *simulated* backend
(the seeded-interleaving oracle the adversarial-plan suite already
proves catches wrong plans) across several seeds and compares the
formatted output against the sequential run's.  Any divergence or
runtime error vetoes the speculation: the region reverts to its
unspeculated shape and the veto is recorded with the failing witness.

Only what is speculative is on trial: the candidate dispatches the
speculative regions and nothing else, so the rest of the function runs
with sequential semantics (as compiled stretches — the stepper is the
only thing that interprets) and the verdict is a function of the
speculative descriptors alone.  ``ctx.oracle`` memoizes it for as long
as its owner says — the ``optimize`` stage shares one memo among the
abstractions of one build, whose plans differ while their speculative
nests usually do not.

Validation runs the whole function per (seed, check), so it only fires
when a speculative descriptor actually exists in the plan.
"""

import dataclasses

#: Seeded interleavings the candidate must survive.
ORACLE_SEEDS = (0, 1, 2)

#: Workers for the oracle runs — enough to split every partition.
ORACLE_WORKERS = 4


class SpeculationValidationPass:
    name = "speculation-oracle"

    def run(self, ctx, plan, report):
        speculative = tuple(r for r in plan.regions if r.speculative)
        if not speculative:
            return plan
        if speculative not in ctx.oracle:
            ctx.oracle[speculative] = _oracle_agrees(
                ctx, plan.with_regions(speculative)
            )
        verdict = ctx.oracle[speculative]
        regions = []
        for region in plan.regions:
            if not region.speculative:
                regions.append(region)
                continue
            if verdict is None:
                report.validated.append((region.label, region.speculative))
                regions.append(_validated(region))
            else:
                report.vetoed.append(
                    (region.speculative, region.label, verdict)
                )
                regions.append(_reverted(region))
        return plan.with_regions(regions)


def _validated(region):
    """The descriptor with its speculation discharged.

    The runtime refuses to dispatch a still-``speculative`` region on
    any real backend, so passing oracle validation must *clear* the
    marker — the transform survives, now carrying an empirical witness.
    """
    witness = region.witness or ""
    stamp = "oracle-validated across seeded interleavings"
    return dataclasses.replace(
        region,
        speculative=None,
        witness=f"{witness}; {stamp}" if witness else stamp,
    )


def _reverted(region):
    """The descriptor with the speculative transform undone.

    Only interchange speculates today, so reverting means dropping the
    nest fields; sync-elision decisions were nest-independent and stay.
    The backend override is cleared too — it was priced on the nest's
    per-dispatch cost, which no longer applies.
    """
    return dataclasses.replace(
        region,
        outer_header=None,
        tile=None,
        speculative=None,
        witness=None,
        backend_override=None,
    )


def _oracle_agrees(ctx, candidate):
    """None when every oracle run matches sequential, else the reason.

    ``candidate`` dispatches only the regions under test.  Both runs
    compile their sequential stretches; the simulated backend steps the
    dispatched regions through the interpreter whatever the engine.
    """
    from repro.runtime.executor import run_parallel, run_plan
    from repro.util.errors import ReproError

    analyses = ctx.analyses
    try:
        expected = run_parallel(
            analyses.module, (), analyses.function.name,
            forest={analyses.function.name: analyses.loops_by_header},
        ).formatted_output()
    except ReproError as exc:  # pragma: no cover - broken input program
        return f"sequential oracle run failed: {exc}"
    for seed in ORACLE_SEEDS:
        try:
            result = run_plan(
                ctx.pspdg,
                candidate,
                workers=ORACLE_WORKERS,
                seed=seed,
                backend="simulated",
            )
        except ReproError as exc:
            return f"oracle run (seed {seed}) raised: {exc}"
        if result.formatted_output() != expected:
            return (
                f"oracle output diverged from sequential at seed {seed}"
            )
    return None
