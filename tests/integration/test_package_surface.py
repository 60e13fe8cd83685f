"""Every name a ``repro`` package re-exports has a caller outside the tests.

A package ``__init__`` that imports a name gives it a second import
path, kept in step with its ``__all__`` entry by hand.  It pays only if
the ``__init__`` uses the name itself or a user of the package imports
it through the package: some file under ``src/``, ``benchmarks/`` or
``examples/``, or a Python import quoted in a fenced code block of
``README.md`` or ``benchmarks/e2e/README.md``.  Tests import a name from
its defining module, so a file under ``tests/`` keeps nothing alive.  A
read is ``from repro.pkg import name``, ``pkg.name`` after ``import
repro.pkg`` or ``from repro import pkg``, or a ``"repro.pkg.name"``
string (a patch target); ``from repro.pkg import module`` names a
submodule, which Python imports without the ``__init__``'s help, so it
reads no re-export.  A re-export whose only caller is another re-export
dies with it, so the check deletes re-exports in memory until nothing
changes and names every one it deleted.

AST only: nothing here imports ``repro``.
"""

import ast
import re
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples")
READMES = ("README.md", "benchmarks/e2e/README.md")
DOTTED = re.compile(r"repro(\.\w+)+")
QUOTED_IMPORT = re.compile(
    r"\s*(from\s+repro[\w.]*\s+import\s.*|import\s+repro\b.*)"
)


def _module_name(path):
    """The dotted name of a file under ``src/`` (None elsewhere)."""
    parts = list(PurePosixPath(path).with_suffix("").parts)
    if parts[0] != "src":
        return None
    parts.pop(0)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _layout(files):
    """``(packages, modules)``: the dotted names of ``src/``'s packages
    and of all its modules, packages included."""
    sources = [path for path in files
               if path.startswith("src/") and path.endswith(".py")]
    modules = {_module_name(path) for path in sources}
    packages = {_module_name(path) for path in sources
                if path.endswith("/__init__.py")}
    return packages, modules


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


def _through(text, module, is_package, layout):
    """``(reads, reexports)`` of one file's source ``text``.

    ``reads``: every ``(package, name)`` the file reads through a
    package.  ``reexports``: for a package ``__init__``, each name it
    imports at top level and does not use itself, mapped to the
    ``(package, name)`` that import reads (None for a plain module or a
    submodule), so that a dead re-export's own read dies with it.
    """
    packages, modules = layout
    tree = ast.parse(text)
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
                if source in packages and source != module \
                        and f"{source}.{alias.name}" not in modules:
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


def _quoted_imports(markdown):
    """The ``repro`` import lines of a Markdown file's fenced blocks."""
    lines, fenced = [], False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced and QUOTED_IMPORT.fullmatch(line):
            lines.append(line.strip())
    return "\n".join(lines)


def _all_entries(text):
    """``(__all__ entries, names bound at top level)`` of an ``__init__``."""
    tree = ast.parse(text)
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


def _repo_files():
    """Relative posix path -> text of every file the rule reads."""
    paths = [ROOT / readme for readme in READMES]
    for directory in CALLER_DIRS:
        paths.extend(sorted((ROOT / directory).rglob("*.py")))
    return {
        path.relative_to(ROOT).as_posix(): path.read_text() for path in paths
    }


def _callers(files):
    """``(module, is_package, python source)`` of each caller in ``files``."""
    for path, text in sorted(files.items()):
        if path in READMES:
            yield None, False, _quoted_imports(text)
        elif path.endswith(".py") and path.split("/")[0] in CALLER_DIRS:
            yield _module_name(path), path.endswith("/__init__.py"), text


def _dead_reexports(files):
    """``package -> sorted names`` no caller in ``files`` needs, to the
    fixpoint.  ``files`` maps relative posix paths to their text."""
    layout = _layout(files)
    reads = set()
    live = {}  # (package, name) -> the (package, name) its import reads
    for module, is_package, text in _callers(files):
        found, reexports = _through(text, module, is_package, layout)
        reads |= found
        for local, read in reexports.items():
            live[module, local] = read
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
    dead = _dead_reexports(_repo_files())
    report = "\n".join(
        f"{package} ({len(names)}): {', '.join(names)}"
        for package, names in sorted(dead.items())
    )
    total = sum(len(names) for names in dead.values())
    assert not dead, f"{total} re-exports no caller imports:\n{report}"


def test_every_all_entry_is_bound_in_its_init():
    for path, text in _repo_files().items():
        if path.startswith("src/") and path.endswith("/__init__.py"):
            entries, bound = _all_entries(text)
            assert set(entries) <= bound, (path, set(entries) - bound)
            assert len(entries) == len(set(entries)), path


def test_this_file_reads_nothing_through_a_package():
    text = Path(__file__).read_text()
    reads, _ = _through(text, None, False, _layout(_repo_files()))
    assert not reads


# The rule on a made-up tree: package ``repro.pkg`` re-exports ``f`` and
# ``g`` from ``repro.pkg.mod``, and the submodule itself.
_INIT = (
    "from repro.pkg import mod\n"
    "from repro.pkg.mod import f, g\n"
    '__all__ = ["mod", "f", "g"]\n'
)
_FIXTURE = {
    "src/repro/__init__.py": "",
    "src/repro/pkg/__init__.py": _INIT,
    "src/repro/pkg/mod.py": "def f():\n    pass\n\n\ndef g():\n    pass\n",
}


def _dead_in(extra):
    """The dead re-exports of the fixture's one re-exporting package."""
    dead = _dead_reexports({**_FIXTURE, **extra})
    return [name for names in dead.values() for name in names]


def test_a_name_imported_only_in_a_readme_code_line_is_kept():
    readme = (
        "Import it like this:\n\n"
        "```python\n"
        "from repro.pkg import f\n"
        "f()\n"
        "```\n\n"
        "Prose that says from repro.pkg import g keeps nothing.\n"
    )
    assert _dead_in({"README.md": readme}) == ["g", "mod"]


def test_a_name_imported_only_from_tests_is_dead():
    test = "from repro.pkg import f, g\n\n\ndef test_f():\n    f()\n    g()\n"
    assert _dead_in({"tests/test_pkg.py": test}) == ["f", "g", "mod"]
    user = "from repro.pkg import f\n"
    both = {"tests/test_pkg.py": test, "examples/use.py": user}
    assert _dead_in(both) == ["g", "mod"]


def test_importing_a_submodule_through_its_package_reads_no_reexport():
    user = "from repro.pkg import mod\n\nmod.f()\n"
    assert _dead_in({"examples/use.py": user}) == ["f", "g", "mod"]
    user = "import repro.pkg\n\nrepro.pkg.f()\n"
    assert _dead_in({"examples/use.py": user}) == ["g", "mod"]
