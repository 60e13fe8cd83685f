"""Per-stage wall time, run counts, and artifact statistics.

``Session.diagnostics`` answers two questions the repository's
benchmarks keep asking: *did this stage run more than once?* (it must
not, per session and content key) and *where did the time go?*  The
report renders the stage table the CLI's ``report`` subcommand prints.
"""

import dataclasses


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

    def record_hit(self, stage):
        self._record(stage).hits += 1

    def runs(self, stage):
        """How many times ``stage`` actually executed (0 if never)."""
        record = self._records.get(stage)
        return record.runs if record else 0

    def stats(self, stage):
        record = self._records.get(stage)
        return dict(record.stats) if record else {}

    def total_seconds(self):
        return sum(record.seconds for record in self._records.values())

    def records(self):
        """Stage records in first-build order."""
        return list(self._records.values())

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
