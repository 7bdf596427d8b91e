"""The runtime modules' imports, their reach, and the declared library API."""

import ast
import importlib
import re
from pathlib import Path

import nodalcone

SRC = Path(__file__).resolve().parent.parent / "src" / "nodalcone"


def test_every_imported_name_is_used():
    """``__init__`` imports only to re-export, and ``__future__`` imports
    switch on features; both are exempt."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def _names(tree) -> set[str]:
    """Every identifier a tree refers to: names, attributes and the names
    of ``from`` imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _nodalcone_imports(tree) -> set[str]:
    """The names a tree imports from ``nodalcone`` modules with ``from``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nodalcone")
        for alias in node.names
    }


def test_every_definition_is_reached_or_exported():
    """Every top-level function and class of a runtime module is named by
    another runtime module or by its own module outside its own body, or
    is in ``nodalcone.__all__``, the declared library API. The console
    entry point ``cli.main`` is exempt."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    del trees["__init__"]
    public = set(nodalcone.__all__)
    orphans = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_names(other) for name, other in trees.items() if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (module, node.name) == ("cli", "main"):
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in public | elsewhere | _names(rest):
                orphans.append(f"{module}.{node.name}")
    assert orphans == []


def test_cli_imports_no_private_name():
    """``cli`` formats what the library computes, and ``cone`` reads
    cohomology through ``bundles``' public routine: neither imports a
    ``_``-prefixed name from another ``nodalcone`` module. Dunder names
    such as ``__version__`` are not private."""
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in (SRC / "cli.py", SRC / "cone.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nodalcone"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def _readme_api() -> dict[str, list[str]]:
    """The names the list in README's "Library use" section gives, per
    module: one item ``- `module`: `name`, ...`` each, continued on
    indented lines."""
    text = (SRC.parents[1] / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `(\w+)`:(.*(?:\n  .*)*)", section, re.M)
    return {module: re.findall(r"`(\w+)`", names) for module, names in items}


def test_all_is_the_declared_api():
    """``nodalcone.__all__`` holds every name the acceptance tests import,
    each once; each resolves, and ``from nodalcone import *`` binds
    exactly these. The package binds no other public name but its
    modules, and README's list names the same ones, each under the module
    that defines it."""
    declared = nodalcone.__all__
    assert len(set(declared)) == len(declared)
    acceptance = _nodalcone_imports(ast.parse((SRC.parents[1] / "tests" / "test_acceptance.py").read_text()))
    assert acceptance and acceptance <= set(declared)
    namespace = {}
    exec("from nodalcone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(declared)
    assert all(namespace[name] is getattr(nodalcone, name) for name in declared)
    bound = {
        name
        for name, value in vars(nodalcone).items()
        if not name.startswith("_") and getattr(value, "__name__", "").rpartition(".")[0] != "nodalcone"
    }
    assert bound == set(declared)
    readme = _readme_api()
    assert sorted(name for names in readme.values() for name in names) == sorted(declared)
    for module, names in readme.items():
        defining = importlib.import_module(f"nodalcone.{module}")
        assert all(getattr(defining, name) is getattr(nodalcone, name) for name in names)
