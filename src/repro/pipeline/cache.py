"""Content-hash keyed artifact store for pipeline stages.

Each artifact is stored under ``(stage name, content key)`` where the
content key hashes everything the artifact depends on: the session's
source text (or module identity), the config fingerprint, and any
per-query parameters (machine model, abstractions, ...).  Changing
the source or the configuration therefore changes every key — stale
artifacts can never be returned, and invalidation is a plain sweep.
"""

import hashlib
import time


def content_key(*parts):
    """A stable hex digest over the ``repr`` of the given parts."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class PipelineCache:
    """Memoization store with hit/miss accounting.

    ``get_or_build`` is the only write path: on a miss it times the
    builder, records the run in the session diagnostics, and stores the
    artifact; on a hit it returns the stored artifact untouched and never
    re-enters the builder — the "each stage runs exactly once" guarantee
    the benchmarks assert.
    """

    def __init__(self):
        self._entries = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def peek(self, key):
        return self._entries.get(key)

    def get_or_build(self, stage, key, builder, diagnostics=None, stats=None):
        """Return the cached artifact for ``key`` or build and record it."""
        full_key = (stage, key)
        if full_key in self._entries:
            self.hits += 1
            if diagnostics is not None:
                diagnostics.record_hit(stage)
            return self._entries[full_key]

        self.misses += 1
        started = time.perf_counter()
        artifact = builder()
        elapsed = time.perf_counter() - started
        self._entries[full_key] = artifact
        if diagnostics is not None:
            artifact_stats = stats(artifact) if stats is not None else None
            diagnostics.record_run(stage, elapsed, artifact_stats)
        return artifact

    def invalidate(self, stage=None):
        """Drop every entry, or only the entries of one stage."""
        if stage is None:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped
        doomed = [k for k in self._entries if k[0] == stage]
        for key in doomed:
            del self._entries[key]
        return len(doomed)
