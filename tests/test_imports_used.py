"""Every name a runtime module imports is used in that module."""

import ast
from pathlib import Path

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


def _from_imports(tree) -> set[str]:
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_is_reached_or_exported():
    """Every top-level function and class of a runtime module is named by
    another runtime module or by its own module outside its own body,
    exported by ``__init__``, or imported by the acceptance tests. The
    console entry point ``cli.main`` is exempt."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    public = _from_imports(trees.pop("__init__"))
    public |= _from_imports(ast.parse((SRC.parents[1] / "tests" / "test_acceptance.py").read_text()))
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
    """``cli`` formats what the library computes: it imports no
    ``_``-prefixed name from another ``nodalcone`` module. Dunder names
    such as ``__version__`` are not private."""
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nodalcone"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
