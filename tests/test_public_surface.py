"""The public surface: README's "Main entry points" table and the functions
the package root exports name the same functions, so a name removed from
the package cannot linger in the docs, nor a new export go unlisted."""
import ast
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
