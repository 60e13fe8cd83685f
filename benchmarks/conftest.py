"""Shared session-scoped pipeline state so each kernel is built once.

Every benchmark rides one :class:`repro.Session` per NAS kernel: the
first query compiles, profiles, and builds the graphs; every later query
(across all bench files in the run) hits the session cache.

Benchmarks that track the perf trajectory across PRs emit
machine-readable ``BENCH_<name>.json`` files (via the ``bench_json``
fixture) into the working directory — or ``$BENCH_OUT_DIR`` — which CI
uploads as workflow artifacts.
"""

import datetime
import json
import os
import subprocess
from pathlib import Path

import pytest

from repro import Session
from repro.workloads import kernel_names

#: Version of the BENCH_*.json envelope.  2 added the provenance header
#: (schema / git_sha / generated_utc) around the previously-bare row
#: list, so the perf trajectory across PRs is attributable.
BENCH_SCHEMA = 2


def _git_sha():
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


@pytest.fixture(scope="session")
def nas_sessions():
    """One lazily-materialized pipeline session per NAS mini-kernel."""
    return {name: Session.from_kernel(name) for name in kernel_names()}


@pytest.fixture(scope="session")
def bench_json():
    """Writer for machine-readable benchmark results.

    ``bench_json(name, rows)`` wraps ``rows`` (a list of flat dicts —
    kernel, backend, payload counts, bytes, wall-clock seconds …) in a
    provenance envelope (schema version, git SHA, UTC timestamp), dumps
    it to ``BENCH_<name>.json``, and returns the path.
    """

    def write(name, rows):
        out_dir = Path(os.environ.get("BENCH_OUT_DIR", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        envelope = {
            "schema": BENCH_SCHEMA,
            "bench": name,
            "git_sha": _git_sha(),
            "generated_utc": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "rows": rows,
        }
        path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
        return path

    return write

