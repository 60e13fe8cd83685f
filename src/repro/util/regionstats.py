"""One dispatched region's measurements: the single typed record.

A :class:`RegionStats` is created with the region, *is* the counter
block the execution backends increment while the region runs, is
completed by the executor (label, backend, wall time, per-worker rows)
and is published exactly once into ``result.parallel_regions``, which
is the only place it is kept.  Every consumer — the
:func:`parallel_report` table, ``CalibrationStore.observe_run``, the
benchmarks — reads this one shape, and the quantities they used to
re-derive (recovery inflation, dispatch overhead, the per-label wire
feedback) are defined here once.

Dependency-free on purpose: the runtime, the planner and the pipeline
all import it, so it must import none of them.
"""

import dataclasses


@dataclasses.dataclass(slots=True)
class RegionStats:
    """Measurements of one parallel-region dispatch.

    Published records also read like the stats dicts they replaced
    (``region["payload_bytes"]``, ``region.get("retries", 0)``,
    ``dict(region)``), which is how the benchmark harness and older
    callers consume them; the key set is exactly the field set.
    """

    header: str = ""  # region label ("+" joins fused members)
    fused: bool = False
    backend: str = ""  # backend that ran it, with any downgrade suffix
    schedule: str = "static"
    workers: int = 0
    chunk: int = 1
    iterations: int = 0
    payloads: int = 0  # process-pool payloads dispatched (processes only)
    payload_bytes: int = 0  # bytes shipped to the pool for this region
    dirty_slots: int = 0  # shared slots this dispatch changed (table diffs)
    prelude_hits: int = 0  # always 0; benchmarks/e2e still reads it
    prelude_misses: int = 0  # always 0; benchmarks/e2e still reads it
    prelude_bytes_saved: int = 0  # always 0; benchmarks/e2e still reads it
    retry_payload_bytes: int = 0  # always 0; benchmarks/e2e still reads it
    compiled_chunks: int = 0  # chunks run through exec-compiled bodies
    interpreted_chunks: int = 0  # chunks run through the dispatch loop
    codegen_compiles: int = 0  # fresh lowerings this region caused
    codegen_source_hits: int = 0  # always 0; benchmarks/e2e still reads it
    codegen_fallbacks: int = 0  # lowering refusals/failures
    retries: int = 0  # supervised re-dispatches after infra failures
    failovers: int = 0  # failovers to threads once retries ran out
    faults_injected: int = 0  # REPRO_FAULTS scenarios fired on this region
    recovery_ms: float = 0.0  # wall-clock spent respawning/backing off
    seconds: float = 0.0  # wall time of the whole dispatch
    # One {"worker", "iterations", "steps", "seconds"} row per worker.
    per_worker: list = dataclasses.field(default_factory=list)

    # -- mapping-style reads ---------------------------------------------------

    def keys(self):
        return self.__slots__

    def __getitem__(self, key):
        if key in self.__slots__:
            return getattr(self, key)
        raise KeyError(key)

    def get(self, key, default=None):
        return getattr(self, key) if key in self.__slots__ else default

    # -- derived quantities ----------------------------------------------------

    @property
    def recovery_inflated(self):
        """True when the wall time includes retry/failover/fault work.

        Such timings measure the fault injector and the retries, not
        the machine: they never calibrate.
        """
        return bool(self.retries or self.failovers or self.faults_injected)

    @property
    def compute_seconds(self):
        """The slowest worker's own clock (0.0 for untimed workers)."""
        return max(
            (worker["seconds"] for worker in self.per_worker), default=0.0
        )

    @property
    def dispatch_overhead(self):
        """Wall time not covered by the slowest worker's compute."""
        return self.seconds - self.compute_seconds


def region_feedback(regions):
    """Measured per-label feedback aggregated over ``regions``.

    Returns ``(payload_bytes, compiled_speedup)``: average bytes-on-wire
    per payload and the measured compiled-over-interpreted step-rate
    ratio, each aggregated over every execution of its region label.
    Both feed ``optimize_plan(payload_bytes=..., compiled_speedup=...)``
    so the small-region pass prices regions at what their dispatches
    *actually* cost — real codegen gains included — instead of at the
    machine model's prior.

    ``compiled_speedup`` only covers labels observed in *both* modes
    (pure compiled and pure interpreted executions); mixed executions
    are skipped because their rate is not attributable to either engine.
    """
    totals = {}  # label -> [bytes, payloads]
    rates = {}  # label -> {mode: [steps, seconds]}
    for region in regions:
        label = region.header
        if region.payloads:
            entry = totals.setdefault(label, [0, 0])
            entry[0] += region.payload_bytes
            entry[1] += region.payloads
        compiled = region.compiled_chunks
        if bool(compiled) == bool(region.interpreted_chunks):
            continue  # mixed or empty
        steps = sum(worker["steps"] for worker in region.per_worker)
        if not steps or region.seconds <= 0.0:
            continue
        entry = rates.setdefault(
            label, {"compiled": [0, 0.0], "interpreted": [0, 0.0]}
        )
        mode = entry["compiled" if compiled else "interpreted"]
        mode[0] += steps
        mode[1] += region.seconds
    payload_bytes = {
        label: total // payloads
        for label, (total, payloads) in totals.items()
    }
    compiled_speedup = {}
    for label, entry in rates.items():
        compiled_steps, compiled_seconds = entry["compiled"]
        interp_steps, interp_seconds = entry["interpreted"]
        if compiled_steps and interp_steps:
            compiled_speedup[label] = (
                (compiled_steps / compiled_seconds)
                / (interp_steps / interp_seconds)
            )
    return payload_bytes, compiled_speedup


def parallel_report(regions):
    """A printable per-region, per-worker execution table of ``regions``.

    ``rtry``/``fo``/``flt``/``rec-ms`` are the supervision ledger:
    region re-dispatches after infrastructure failures, failovers to
    ``threads``, injected faults, and milliseconds spent in recovery
    (pool respawn + backoff).
    """
    if not regions:
        return "no parallel regions executed"
    lines = [
        f"{'loop':16} {'backend':26} {'sched':8} {'W':>2} "
        f"{'iters':>6} {'bytes':>8} {'cc':>4} {'ic':>4} "
        f"{'rtry':>4} {'fo':>3} {'flt':>4} {'rec-ms':>7} "
        f"{'seconds':>9}  per-worker steps"
    ]
    lines.append("-" * len(lines[0]))
    for region in regions:
        steps = "/".join(str(worker["steps"]) for worker in region.per_worker)
        lines.append(
            f"{region.header:16} {region.backend:26} "
            f"{region.schedule:8} {region.workers:>2} "
            f"{region.iterations:>6} "
            f"{region.payload_bytes:>8} "
            f"{region.compiled_chunks:>4} "
            f"{region.interpreted_chunks:>4} "
            f"{region.retries:>4} "
            f"{region.failovers:>3} "
            f"{region.faults_injected:>4} "
            f"{region.recovery_ms:>7.1f} "
            f"{region.seconds:>9.4f}  "
            f"{steps}"
        )
    return "\n".join(lines)
