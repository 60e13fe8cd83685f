"""The paper's Section 2 narrative on IS: re-planning the parallelization.

The NAS IS kernel (paper Fig. 3) encodes one specific plan: per-thread
private buffers, one workshared ranking loop, a sequential prefix pass,
and a critical merge.  This example shows what each abstraction can do
with it:

* the OpenMP plan is what the programmer wrote;
* the PDG-based compiler (outermost loops, sequential analysis) loses the
  programmer's parallelism — the indirect histogram update and the
  critical defeat it;
* the PS-PDG sees the precise constraints (threadprivate buffer ->
  privatizable, critical -> orderless, merge loop -> independent) and
  selects a strictly better plan, the paper's headline claim.

The second half then *re-prices the plan between runs*: the session is
given a deliberately mis-calibrated machine model (per-byte wire cost
claimed to be ~free) and ``calibrate=True``.  Run 1 dispatches IS on the
process pool as that model priced it; its measurements feed the
calibration store, and run 2 runs the plan re-priced from them.  The
example prints where each run dispatched its regions and the
coefficients the store measured.

Run:  python examples/is_calibration.py
"""

from repro import Session
from repro.planner.machine import DEFAULT_MACHINE, MachineModel
from repro.workloads.nas import is_


def main():
    print("IS kernel (mini scale), original OpenMP structure:")
    for line in is_.SOURCE.strip().splitlines():
        print(f"    {line}")
    print()

    session = Session.from_kernel("IS")
    print(f"sequential execution: {session.execution.steps} dynamic instructions")
    print(f"program output:       {session.execution.formatted_output()}")
    print()

    results = session.critical_paths()
    print("ideal-machine critical paths and plans:")
    for name in ("Sequential", "OpenMP", "PDG", "J&K", "PS-PDG"):
        entry = results[name]
        plan = entry.get("plan")
        techniques = (
            {h: lp.technique for h, lp in plan.loop_plans.items()}
            if plan is not None
            else {}
        )
        speedup = entry["speedup"]
        ratio = f"{speedup:6.3f}x" if speedup else "  --  "
        print(f"  {name:10} CP={entry['critical_path']:>7}  {ratio}  {techniques}")
    print()

    pdg_speedup = results["PDG"]["speedup"]
    ps_speedup = results["PS-PDG"]["speedup"]
    print(
        f"-> The PDG-based plan reaches {pdg_speedup:.2f}x of the OpenMP "
        f"plan (it loses the programmer's parallelism),"
    )
    print(
        f"   while the PS-PDG plan reaches {ps_speedup:.2f}x — the "
        f"compiler found a better plan than the source encoded."
    )
    print()
    calibration_demo()


def calibration_demo():
    """Run IS twice under a mis-calibrated model, calibrating between."""
    print("calibration demo: plan with a machine model whose dispatch/wire")
    print("costs are ~100x too optimistic, run once, then run the plan")
    print("re-priced from what that run measured:")
    print()

    miscalibrated = MachineModel(
        serial_region_cost=1,       # "every region is worth dispatching"
        threads_region_cost=2,
        payload_cost_per_byte=1e-9,  # "bytes on the wire are free"
    )
    session = Session.from_kernel(
        "IS", opt_level=2, backend="processes", workers=4,
        machine=miscalibrated, calibrate=True,
    )
    for label in ("run 1 (mis-calibrated)", "run 2 (re-priced)"):
        result = session.run("PS-PDG")
        print(f"{label}: output {result.formatted_output()}")
        for region in result.parallel_regions:
            print(f"  {region.header:16} {region.backend}")
    print()
    print("coefficients the two runs measured (vs. the mis-calibrated input):")
    print(session.calibration.describe(miscalibrated))
    print()
    print("static defaults, for comparison:")
    print(
        f"  payload_cost_per_byte={DEFAULT_MACHINE.payload_cost_per_byte} "
        f"threads_region_cost={DEFAULT_MACHINE.threads_region_cost} "
        f"serial_region_cost={DEFAULT_MACHINE.serial_region_cost}"
    )


if __name__ == "__main__":
    main()
