"""The consolidated env-knob registry (repro.runtime.knobs).

Every debug/bench flag the runtime reads from the environment lives in
one registry with one truthiness rule, refreshed between tests by the
autouse conftest fixture — these tests pin the rule, the refresh
contract, and that each knob has one name.
"""

import ast
import math
import pickle
import sys
from pathlib import Path

import pytest

from repro.runtime import backends, knobs


def test_unset_env_uses_default(monkeypatch):
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    knobs.refresh()
    assert not knobs.VERIFY_COMPILED
    assert knobs.REPRO_FAULTS.value == ""  # typed default


@pytest.mark.parametrize("name", [
    "REPRO_RETRY_BACKOFF", "REPRO_REGION_TIMEOUT",
])
def test_supervision_reads_nothing_from_the_environment(monkeypatch, name):
    """The retry backoff and the region deadline are module constants:
    their old variable names are no knobs, and ``inf`` there (once an
    OverflowError in ``time.sleep`` / ``future.result``) changes nothing."""
    monkeypatch.setenv(name, "inf")
    knobs.refresh()
    assert name not in knobs.snapshot()
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
    """A test that pokes ``knob.value`` cannot leak into the next test."""
    monkeypatch.delenv("VERIFY_COMPILED", raising=False)
    knobs.refresh()
    assert not knobs.VERIFY_COMPILED
    knobs.VERIFY_COMPILED.value = True
    assert knobs.VERIFY_COMPILED
    knobs.refresh()  # what the autouse conftest fixture runs
    assert not knobs.VERIFY_COMPILED


def test_flag_registry_is_get_or_create():
    first = knobs.flag("VERIFY_COMPILED")
    assert first is knobs.VERIFY_COMPILED
    fresh = knobs.flag("REPRO_TEST_ONLY_KNOB")
    try:
        assert knobs.flag("REPRO_TEST_ONLY_KNOB") is fresh
        assert "REPRO_TEST_ONLY_KNOB" in knobs.as_dict()
    finally:
        knobs._KNOBS.pop("REPRO_TEST_ONLY_KNOB")


def test_flag_conflicting_default_is_an_error():
    """Re-registration must not silently drop a conflicting default.

    Before the fix, ``flag(name, default=True)`` on an existing
    default-False knob returned the old knob unchanged — the caller's
    explicit default was ignored without a trace.
    """
    knobs.flag("REPRO_TEST_CONFLICT_KNOB", default=False)
    try:
        with pytest.raises(ValueError, match="conflicting"):
            knobs.flag("REPRO_TEST_CONFLICT_KNOB", default=True)
        # Same-default re-registration stays a cheap fetch.
        again = knobs.flag("REPRO_TEST_CONFLICT_KNOB", default=False)
        assert again is knobs._KNOBS["REPRO_TEST_CONFLICT_KNOB"]
    finally:
        knobs._KNOBS.pop("REPRO_TEST_CONFLICT_KNOB")


def test_registry_carries_defaults_values_and_docs():
    snap = knobs.snapshot()
    assert set(snap) == set(knobs.as_dict())
    entry = snap["VERIFY_COMPILED"]
    assert entry["default"] is False
    assert isinstance(entry["value"], bool)
    assert "interpreted" in entry["doc"].lower()
    assert snap["REPRO_FAULTS"]["default"] == ""
    # Every registered knob documents itself — the README table is
    # generated from these lines.
    assert all(info["doc"] for info in snap.values())


def test_readme_knob_table_matches_the_registry():
    """The README's knob table is the registry's, verbatim.

    Adding/renaming a knob without pasting the regenerated table
    (``python -m repro knobs --markdown``) fails here — README switches
    can never drift from what the code actually reads.
    """
    readme = Path(__file__).resolve().parents[2] / "README.md"
    table = knobs.markdown_table()
    assert "| `REPRO_FAULTS` | (empty) |" in table  # sanity
    assert table in readme.read_text(), (
        "README.md knob table is stale — regenerate it with "
        "`python -m repro knobs --markdown` and paste it in"
    )


def test_a_knob_is_bound_only_in_the_registry():
    """Code reads a knob as ``knobs.NAME``: no loaded module binds one
    to a second name, so a ``knob.value`` override reaches every reader."""
    import repro.session  # noqa: F401 -- loads the pipeline and runtime

    homes = sorted(
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for attr, value in vars(module).items()
        if isinstance(value, knobs.Knob)
    )
    assert homes == [
        "repro.runtime.knobs.REPRO_FAULTS",
        "repro.runtime.knobs.VERIFY_COMPILED",
    ]


def test_env_wins_over_stale_value(monkeypatch):
    monkeypatch.setenv("VERIFY_COMPILED", "1")
    knobs.refresh()
    assert knobs.VERIFY_COMPILED
    monkeypatch.setenv("VERIFY_COMPILED", "0")
    knobs.refresh()
    assert not knobs.VERIFY_COMPILED


def test_knob_repr_and_pickle_guard():
    text = repr(knobs.VERIFY_COMPILED)
    assert "VERIFY_COMPILED" in text
    # Knobs are process-local switches; pickling one (e.g. into a wire
    # header) is a bug. bool() them first — as encode_region does.
    assert isinstance(bool(knobs.VERIFY_COMPILED), bool)
    assert pickle.loads(pickle.dumps(bool(knobs.VERIFY_COMPILED))) in (
        True, False,
    )


#: The registry keeps only what arms an oracle or injects chaos over an
#: unmodified test run; behavioural options live on SessionConfig.
SURVIVING_KNOBS = {"VERIFY_COMPILED", "REPRO_FAULTS"}


def test_every_knob_is_flipped_somewhere():
    """A knob nobody flips is dead weight: each registered name must
    occur in a test or a CI step, and no other name may register."""
    root = Path(__file__).resolve().parents[2]
    assert set(knobs.snapshot()) == SURVIVING_KNOBS
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
