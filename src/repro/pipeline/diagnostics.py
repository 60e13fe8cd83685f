"""Per-stage wall time, run counts, and artifact statistics.

``Session.diagnostics`` answers two questions the repository's
benchmarks keep asking: *did this stage run more than once?* (it must
not, per session and content key) and *where did the time go?*  The
report renders the stage table the CLI's ``report`` subcommand prints.
"""

import dataclasses

from repro.util.regionstats import region_feedback


@dataclasses.dataclass(slots=True)
class StageRecord:
    """Accounting for one pipeline stage within one session."""

    stage: str
    runs: int = 0
    hits: int = 0
    seconds: float = 0.0
    stats: dict = dataclasses.field(default_factory=dict)


class Diagnostics:
    """Collects :class:`StageRecord` entries as stages materialize."""

    def __init__(self):
        self._records = {}
        self.events = []  # (stage, seconds) per actual build, in order
        self.parallel_regions = []  # per parallel loop execution, in order

    def _record(self, stage):
        if stage not in self._records:
            self._records[stage] = StageRecord(stage)
        return self._records[stage]

    def record_run(self, stage, seconds, stats=None):
        record = self._record(stage)
        record.runs += 1
        record.seconds += seconds
        if stats:
            record.stats = dict(stats)
        self.events.append((stage, seconds))

    def record_hit(self, stage):
        self._record(stage).hits += 1

    def record_parallel(self, region):
        """Record one parallel region execution (from ``Session.run``).

        ``region`` is the runtime's published
        :class:`~repro.util.regionstats.RegionStats` record.
        """
        self.parallel_regions.append(region)

    def payload_feedback(self):
        """:func:`~repro.util.regionstats.region_feedback` over every
        recorded region: ``(payload_bytes, compiled_speedup,
        recovery)`` per region label."""
        return region_feedback(self.parallel_regions)

    def runs(self, stage):
        """How many times ``stage`` actually executed (0 if never)."""
        record = self._records.get(stage)
        return record.runs if record else 0

    def hits(self, stage):
        record = self._records.get(stage)
        return record.hits if record else 0

    def stats(self, stage):
        record = self._records.get(stage)
        return dict(record.stats) if record else {}

    def total_seconds(self):
        return sum(record.seconds for record in self._records.values())

    def records(self):
        """Stage records in first-build order."""
        seen = []
        for stage, _seconds in self.events:
            if stage not in seen:
                seen.append(stage)
        for stage in self._records:
            if stage not in seen:
                seen.append(stage)
        return [self._records[stage] for stage in seen]

    def as_dict(self):
        return {
            record.stage: {
                "runs": record.runs,
                "hits": record.hits,
                "seconds": record.seconds,
                "stats": dict(record.stats),
            }
            for record in self.records()
        }

    def parallel_report(self):
        """A printable per-region, per-worker execution table.

        ``rtry``/``fo``/``flt``/``rec-ms`` are the
        supervision ledger: region re-dispatches after infrastructure
        failures, degradation-ladder failovers, injected faults, and
        milliseconds spent in recovery (pool respawn + backoff).
        ``rpl`` counts the adaptive replans this dispatch triggered.
        """
        if not self.parallel_regions:
            return "no parallel regions executed"
        lines = [
            f"{'loop':16} {'backend':26} {'sched':8} {'W':>2} "
            f"{'iters':>6} {'bytes':>8} {'cc':>4} {'ic':>4} "
            f"{'rtry':>4} {'fo':>3} {'flt':>4} {'rec-ms':>7} "
            f"{'rpl':>3} {'seconds':>9}  per-worker steps"
        ]
        lines.append("-" * len(lines[0]))
        for region in self.parallel_regions:
            steps = "/".join(
                str(worker["steps"]) for worker in region.per_worker
            )
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
                f"{region.replans:>3} "
                f"{region.seconds:>9.4f}  "
                f"{steps}"
            )
        return "\n".join(lines)

    def report(self):
        """A printable per-stage table."""
        lines = [f"{'stage':16} {'runs':>4} {'hits':>4} {'seconds':>9}  stats"]
        lines.append("-" * 72)
        for record in self.records():
            rendered = " ".join(
                f"{key}={value}" for key, value in record.stats.items()
            )
            lines.append(
                f"{record.stage:16} {record.runs:>4} {record.hits:>4} "
                f"{record.seconds:>9.4f}  {rendered}"
            )
        lines.append("-" * 72)
        lines.append(f"{'total':16} {'':>4} {'':>4} {self.total_seconds():>9.4f}")
        return "\n".join(lines)
