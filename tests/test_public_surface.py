"""The public surface: README's "Main entry points" table and the functions
the package root exports name the same functions, so a name removed from
the package cannot linger in the docs, nor a new export go unlisted."""
import ast
import collections
import inspect
import re
from pathlib import Path

import planeaut


def _readme_entry_points():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("Main entry points", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]
    return [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])]


def test_readme_entry_points_import_from_the_package():
    names = _readme_entry_points()
    assert len(names) >= 25
    missing = [name for name in names if not hasattr(planeaut, name)]
    assert not missing


def test_exported_functions_are_the_readme_entry_points():
    exported = {name for name, value in vars(planeaut).items()
                if inspect.isfunction(value) and not name.startswith("_")}
    listed = {name for name in _readme_entry_points()
              if inspect.isfunction(getattr(planeaut, name, None))}
    assert exported == listed, (sorted(exported - listed), sorted(listed - exported))


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads (pyflakes' F401, on the
    stdlib ast).  A package's __init__ imports to re-export, so it is not
    checked."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports_in_the_package():
    src = Path(planeaut.__file__).parent
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 9
    assert [hit for p in modules for hit in _unused_imports(p)] == []



def _referenced_names(node) -> list:
    """The names node and its descendants read: names, attributes, and the
    names a from-import binds."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out += [alias.name for alias in n.names]
    return out


def _dead_definitions(src: Path) -> list:
    """Module-level functions and classes of the package that no module of
    it names outside their own definition.  The package root's imports
    count, so an export is never dead."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    total = collections.Counter(name for tree in trees.values()
                                for name in _referenced_names(tree))
    return [f"{mod}:{node.lineno} {node.name}"
            for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and total[node.name] == _referenced_names(node).count(node.name)]


def test_every_definition_is_referenced_or_exported():
    """A helper that a change leaves without callers is deleted with it."""
    src = Path(planeaut.__file__).parent
    assert _dead_definitions(src) == []
