"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parikh"


def test_only_standard_library_imports():
    allowed = set(sys.stdlib_module_names) | {"parikh"}
    foreign = []
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


def test_no_unused_module_level_imports():
    # __init__.py imports in order to re-export; every other module-level
    # import must be read somewhere in its module
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_only_membership_compares_engine_names():
    # `membership.engine` is the one place that picks an engine by name;
    # every other module passes the name through.  `cli._dispatch` compares
    # the subcommand `cmd`, and the `oracle` command shares a name with
    # the engine, so a comparison with `cmd` does not count
    from parikh.membership import ENGINES

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "membership.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            sides = (node.left, *node.comparators)
            if any(isinstance(side, ast.Name) and side.id == "cmd" for side in sides):
                continue
            if any(isinstance(leaf, ast.Constant) and leaf.value in ENGINES
                   for side in sides for leaf in ast.walk(side)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
