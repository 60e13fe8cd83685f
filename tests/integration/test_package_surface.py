"""Every name a ``repro`` package re-exports has a caller.

A package ``__init__`` that imports a name gives it a second import
path, kept in step with its ``__all__`` entry by hand.  It pays only if
the ``__init__`` uses the name itself or some file under ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` imports it through the
package: ``from repro.pkg import name``, ``pkg.name`` after ``import
repro.pkg`` or ``from repro import pkg``, or a ``"repro.pkg.name"``
string (a patch target).  A re-export whose only caller is another
re-export dies with it, so the check deletes re-exports in memory until
nothing changes and names every one it deleted.

AST only: nothing here imports ``repro``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples")
DOTTED = re.compile(r"repro(\.\w+)+")


def _packages():
    """Dotted package name -> its ``__init__.py``."""
    found = {}
    for path in sorted(PACKAGE_ROOT.rglob("__init__.py")):
        parts = path.parent.relative_to(PACKAGE_ROOT.parent).parts
        found[".".join(parts)] = path
    return found


def _module_name(path):
    """The dotted name of a file under ``src/`` (None elsewhere)."""
    try:
        parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    except ValueError:
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_module(node, module, is_package):
    """The module an ``ImportFrom`` reads, relative levels resolved."""
    if not node.level:
        return node.module
    base = module.split(".")
    base = base[: len(base) - node.level + is_package]
    return ".".join(base + ([node.module] if node.module else []))


def _chain(node):
    """``a.b.c`` -> ``["a", "b", "c"]``; None when the base is no name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return names[::-1]


def _walk_through(package, names, packages):
    """``(package, name)`` for each step of a dotted path from a package."""
    for name in names:
        yield package, name
        package = f"{package}.{name}"
        if package not in packages:
            return


def _used_names(tree):
    """Names a module reads in its own code, ``__all__`` aside."""
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                used.add(child.id)
    return used


def _through(path, packages):
    """``(reads, reexports)`` of one file.

    ``reads``: every ``(package, name)`` the file reads through a
    package.  ``reexports``: for a package ``__init__``, each name it
    imports at top level and does not use itself, mapped to the
    ``(package, name)`` that import reads (None for a plain module), so
    that a dead re-export's own read dies with it.
    """
    tree = ast.parse(path.read_text(), str(path))
    module = _module_name(path)
    is_package = path.name == "__init__.py"
    used = _used_names(tree) if is_package else set()
    bound = {}  # local name -> the package it denotes
    reads = set()
    reexports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node, module, is_package)
            for alias in node.names:
                local = alias.asname or alias.name
                read = None
                if source in packages and source != module:
                    read = source, alias.name
                if is_package and node in tree.body and local not in used:
                    reexports[local] = read
                elif read:
                    reads.add(read)
                if f"{source}.{alias.name}" in packages:
                    bound[local] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    if alias.name in packages:
                        bound[alias.asname] = alias.name
                    if is_package and node in tree.body \
                            and alias.asname not in used:
                        reexports[alias.asname] = None
                else:
                    top = alias.name.split(".")[0]
                    if top in packages:
                        bound[top] = top
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = _chain(node)
            if names and names[0] in bound:
                reads.update(
                    _walk_through(bound[names[0]], names[1:], packages)
                )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                names = node.value.split(".")
                reads.update(_walk_through("repro", names[1:], packages))
    return reads, reexports


def _all_entries(path):
    """``(__all__ entries, names bound at top level)`` of an ``__init__``."""
    tree = ast.parse(path.read_text(), str(path))
    entries, bound = [], set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        entries = [e.value for e in node.value.elts]
    return entries, bound


def _callers():
    for directory in CALLER_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


def _dead_reexports():
    """``package -> sorted names`` no caller needs, to the fixpoint."""
    packages = _packages()
    reads = set()
    live = {}  # (package, name) -> the (package, name) its import reads
    for path in _callers():
        found, reexports = _through(path, packages)
        reads |= found
        package = _module_name(path)
        for local, read in reexports.items():
            live[package, local] = read
    dead = {}
    while True:
        needed = reads | {read for read in live.values() if read}
        newly = [key for key in live if key not in needed]
        if not newly:
            break
        for package, local in newly:
            del live[package, local]
            dead.setdefault(package, []).append(local)
    return {package: sorted(names) for package, names in dead.items()}


def test_every_reexport_has_a_caller():
    dead = _dead_reexports()
    report = "\n".join(
        f"{package} ({len(names)}): {', '.join(names)}"
        for package, names in sorted(dead.items())
    )
    total = sum(len(names) for names in dead.values())
    assert not dead, f"{total} re-exports no caller imports:\n{report}"


def test_every_all_entry_is_bound_in_its_init():
    for package, path in _packages().items():
        entries, bound = _all_entries(path)
        assert set(entries) <= bound, (package, set(entries) - bound)
        assert len(entries) == len(set(entries)), package


def test_this_file_reads_nothing_through_a_package():
    reads, _ = _through(Path(__file__), _packages())
    assert not reads
