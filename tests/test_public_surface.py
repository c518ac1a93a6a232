"""The public surface: README's "Main entry points" table and the functions
the package root exports name the same functions, so a name removed from
the package cannot linger in the docs, nor a new export go unlisted."""
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
