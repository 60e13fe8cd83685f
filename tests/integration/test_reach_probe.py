"""``benchmarks/reach.py``'s bookkeeping, without tracing anything.

The probe keys every ``src/repro`` function by (file, first line) from
the AST and matches those keys against the code objects a traced child
entered, so the two must agree, decorators included.  Its report counts
an unreached function once, at its outermost unreached level.  Its
allow-list names only what exists, each entry with a reason: a deletion
that leaves its entry behind fails here.  Nothing here starts a child:
``reached`` is replaced where a test needs it.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _probe():
    spec = importlib.util.spec_from_file_location(
        "reach_probe", ROOT / "benchmarks" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code(module_name, qualname):
    """The code object behind ``module_name.qualname``, or None when the
    name does not resolve by attribute (a function nested in another)."""
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        if not inspect.isclass(target) and not inspect.ismodule(target):
            return None
        if part not in vars(target):
            return None
        target = vars(target)[part]
    for attribute in ("fget", "func", "__func__"):
        target = getattr(target, attribute, target)
    target = inspect.unwrap(target)
    return getattr(target, "__code__", None)


def test_a_records_key_is_its_code_objects_first_line():
    found = _probe().functions()
    checked = decorated = 0
    for (path, first), record in found.items():
        code = _code(record["module"], record["qualname"])
        if code is None or code.co_filename != path:
            continue
        assert code.co_firstlineno == first, record
        checked += 1
        source = Path(path).read_text().splitlines()[first - 1]
        decorated += source.lstrip().startswith("@")
    assert checked > len(found) // 2
    assert decorated > 10  # properties, cached properties, memo wrappers


def test_nested_functions_name_their_outer():
    found = _probe().functions()
    nested = [r for r in found.values() if r["outer"] is not None]
    assert nested
    for record in nested:
        outer = found[record["outer"]]
        assert record["module"] == outer["module"]
        assert record["qualname"].startswith(outer["qualname"] + ".")
        assert record["lines"] < outer["lines"]


def test_allow_list_names_cover_modules_classes_and_exact_names():
    allowed = _probe()._allowed
    names = [("repro.a", "*"), ("repro.b", "Codec"), ("repro.c", "run")]

    def record(module, qualname):
        return {"module": module, "qualname": qualname}

    assert allowed(record("repro.a", "anything.at.all"), names)
    assert allowed(record("repro.b", "Codec"), names)
    assert allowed(record("repro.b", "Codec.encode.inner"), names)
    assert allowed(record("repro.c", "run"), names)
    assert not allowed(record("repro.b", "CodecCache.get"), names)
    assert not allowed(record("repro.c", "run_all"), names)
    assert not allowed(record("repro.c", "Codec"), names)
    assert not allowed(record("repro.ab", "run"), names)


def test_each_unreached_function_counts_once_at_its_outermost_level(
    monkeypatch, capsys
):
    probe = _probe()
    found = {
        ("m.py", 1): {"module": "m", "qualname": "entered",
                      "lines": 8, "outer": None},
        ("m.py", 3): {"module": "m", "qualname": "entered.inner",
                      "lines": 2, "outer": ("m.py", 1)},
        ("m.py", 10): {"module": "m", "qualname": "never",
                       "lines": 6, "outer": None},
        ("m.py", 12): {"module": "m", "qualname": "never.inner",
                       "lines": 3, "outer": ("m.py", 10)},
        ("m.py", 20): {"module": "m", "qualname": "Node.__repr__",
                       "lines": 2, "outer": None},
        ("m.py", 30): {"module": "m", "qualname": "Kept.run",
                       "lines": 4, "outer": None},
    }
    monkeypatch.setattr(probe, "functions", lambda: found)
    monkeypatch.setattr(probe, "reached", lambda: {("m.py", 1)})
    monkeypatch.setattr(probe, "allowed_names", lambda: [("m", "Kept")])
    assert probe.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "unreached: 2 functions, 8 lines (1 allow-listed, 4 lines)",
        "  m:entered.inner (2 lines)",
        "  m:never (6 lines)",
        "stale: 0",
    ]


def test_an_allow_listed_name_the_entry_set_reaches_is_stale(
    monkeypatch, capsys
):
    """A name is stale once every function it covers was entered: a
    class whose one method is still unreached is not."""
    probe = _probe()
    found = {
        ("m.py", 1): {"module": "m", "qualname": "Now.run",
                      "lines": 4, "outer": None},
        ("m.py", 10): {"module": "m", "qualname": "Half.run",
                       "lines": 3, "outer": None},
        ("m.py", 20): {"module": "m", "qualname": "Half.stop",
                       "lines": 5, "outer": None},
        ("m.py", 30): {"module": "m", "qualname": "gone",
                       "lines": 2, "outer": None},
    }
    monkeypatch.setattr(probe, "functions", lambda: found)
    monkeypatch.setattr(
        probe, "reached", lambda: {("m.py", 1), ("m.py", 10), ("m.py", 30)}
    )
    monkeypatch.setattr(
        probe, "allowed_names",
        lambda: [("m", "Now"), ("m", "Half"), ("m", "gone")],
    )
    assert probe.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "unreached: 0 functions, 0 lines (1 allow-listed, 5 lines)",
        "stale: 2",
        "  m:Now (reached)",
        "  m:gone (reached)",
    ]


def test_every_entry_has_a_reason_and_names():
    probe = _probe()
    for reason, lines in probe.ALLOWED.items():
        assert reason.strip(), lines
        assert lines.strip(), reason
    assert all(module and qualname
               for module, qualname in probe.allowed_names())


def test_every_allow_listed_name_still_exists():
    probe = _probe()
    records = list(probe.functions().values())
    missing = [
        f"{module}:{qualname}"
        for module, qualname in probe.allowed_names()
        if not any(
            record["module"] == module
            and probe._allowed(record, [(module, qualname)])
            for record in records
        )
    ]
    assert not missing, missing


def test_every_test_file_a_reason_names_exists():
    named = {
        path for reason in _probe().ALLOWED
        for path in re.findall(r"tests/[\w/]+\.py", reason)
    }
    assert named
    assert not [path for path in named if not (ROOT / path).is_file()]
