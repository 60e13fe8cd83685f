"""The runtime's two environment knobs (repro.runtime.knobs).

Both are plain module values, re-read from the environment by
``knobs.refresh()`` (the autouse conftest fixture runs it around every
test) — these tests pin the truthiness rule, the refresh contract, and
that each knob has one name.
"""

import ast
import math
from pathlib import Path

import pytest

from repro.runtime import backends, knobs


def test_unset_env_uses_default(monkeypatch):
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    knobs.refresh()
    assert knobs.as_dict() == {"REPRO_FAULTS": "", "VERIFY_COMPILED": False}


@pytest.mark.parametrize("name", [
    "REPRO_RETRY_BACKOFF", "REPRO_REGION_TIMEOUT",
])
def test_supervision_reads_nothing_from_the_environment(monkeypatch, name):
    """The retry backoff and the region deadline are module constants:
    their old variable names are no knobs, and ``inf`` there (once an
    OverflowError in ``time.sleep`` / ``future.result``) changes nothing."""
    monkeypatch.setenv(name, "inf")
    knobs.refresh()
    assert name not in knobs.as_dict()
    assert backends.RETRY_BUDGET == 2 and backends.RETRY_BACKOFF == 0.05
    assert math.isfinite(backends._region_allowance(50_000_000))


@pytest.mark.parametrize("raw", ["", "0", "false", "False", " no ", "OFF"])
def test_falsy_spellings(monkeypatch, raw):
    monkeypatch.setenv("VERIFY_COMPILED", raw)
    knobs.refresh()
    assert not knobs.VERIFY_COMPILED


@pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "anything"])
def test_truthy_spellings(monkeypatch, raw):
    monkeypatch.setenv("VERIFY_COMPILED", raw)
    knobs.refresh()
    assert knobs.VERIFY_COMPILED


def test_refresh_resets_manual_overrides(monkeypatch):
    """A test that assigns a knob cannot leak into the next test."""
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    knobs.refresh()
    assert not knobs.VERIFY_COMPILED
    knobs.VERIFY_COMPILED = True
    assert knobs.VERIFY_COMPILED
    knobs.refresh()  # what the autouse conftest fixture runs
    assert not knobs.VERIFY_COMPILED


def test_a_knob_is_bound_only_in_the_registry():
    """Code reads a knob as ``knobs.NAME``: no module imports one under a
    second name, so an assignment to ``knobs.NAME`` reaches every reader."""
    root = Path(__file__).resolve().parents[2]
    bindings = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (root / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                    node.module == "repro.runtime.knobs"
                    or (node.level and node.module == "knobs")
                ):
                    bindings.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not bindings


def test_readme_table_names_every_knob():
    readme = Path(__file__).resolve().parents[2] / "README.md"
    section = readme.read_text().split("### Environment knobs", 1)[1]
    table = section.split("\n\n| Knob |", 1)[1].split("\n\n", 1)[0]
    for name in knobs.as_dict():
        assert f"| `{name}` |" in table, f"README's knob table lacks {name}"


def test_env_wins_over_stale_value(monkeypatch):
    monkeypatch.setenv("VERIFY_COMPILED", "1")
    knobs.refresh()
    assert knobs.VERIFY_COMPILED
    monkeypatch.setenv("VERIFY_COMPILED", "0")
    knobs.refresh()
    assert not knobs.VERIFY_COMPILED


#: The environment carries only what arms an oracle or injects chaos over an
#: unmodified test run; behavioural options live on SessionConfig.
SURVIVING_KNOBS = {"VERIFY_COMPILED", "REPRO_FAULTS"}


def test_every_knob_is_flipped_somewhere():
    """A knob nobody flips is dead weight: each name must occur in a
    test or a CI step, and there is no other knob."""
    root = Path(__file__).resolve().parents[2]
    assert set(knobs.as_dict()) == SURVIVING_KNOBS
    corpus = (root / ".github" / "workflows" / "ci.yml").read_text()
    for path in (root / "tests").rglob("*.py"):
        if path != Path(__file__).resolve():
            corpus += path.read_text()
    unflipped = [name for name in SURVIVING_KNOBS if name not in corpus]
    assert not unflipped, f"knobs no test or CI step flips: {unflipped}"


def test_only_the_registry_reads_the_environment():
    """No module but ``runtime/knobs.py`` reads ``os.environ``, and the
    option-resolving modules hold no ``x if x is not None else
    knobs.Y`` fall-through: an option has one home."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"

    def mentions_knobs(node):
        return any(
            isinstance(sub, ast.Name) and sub.id == "knobs"
            for sub in ast.walk(node)
        )

    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name != "knobs.py":
            environ_reads = [
                node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
            ]
            assert not environ_reads, f"{path}: reads env at {environ_reads}"
        if path.name in ("session.py", "executor.py", "backends.py"):
            fallthroughs = [
                node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.IfExp) and mentions_knobs(node.orelse)
            ]
            assert not fallthroughs, (
                f"{path}: knob fall-through at {fallthroughs}"
            )
