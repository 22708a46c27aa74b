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


def test_no_assert_statements():
    # `python -O` strips assert statements, and a check must not vanish
    # with them: the package raises its errors explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


def test_no_unused_private_functions():
    # every private module-level function and private method is read
    # somewhere in the package, so a helper goes with its last caller
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            scope = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(path.name, f.name) for f in scope
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and f.name.startswith("_") and not f.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []


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


def test_only_membership_reads_engine_answers_and_builds_states():
    # `membership` alone decides what an engine answer means and builds
    # engine states: every other module reads `MembershipResult.verdict`,
    # takes completeness from `miss()` rather than from the enumeration
    # flags behind it, and gets its state from `membership.engine`, which
    # alone reads the states kept on a grammar.  The `member` command
    # shares MEMBER's string, so a comparison with `cmd` does not count
    from parikh import membership

    statuses = {membership.MEMBER, membership.NON_MEMBER, membership.UNKNOWN}
    names = {"MEMBER", "NON_MEMBER", "UNKNOWN"}
    constructors = {"RegularMembership", "GeneralMembership", "OracleMembership", "_kept"}
    flags = {"runs_complete", "runs_capped", "cycles_complete", "cycles_capped", "engine_states"}

    def name_of(node):
        return node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)

    # every engine answer is built in `membership` with one of the three
    # statuses, one per verdict value
    tree = ast.parse((SRC / "membership.py").read_text(encoding="utf-8"))
    built = {name_of(node.args[0]) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and name_of(node.func) == "MembershipResult"}
    assert built == names
    assert {membership.MembershipResult(s).verdict for s in statuses} == {True, False, None}

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "membership.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Compare):
                leaves = [leaf for side in (node.left, *node.comparators) for leaf in ast.walk(side)]
                if any(name_of(leaf) == "cmd" for leaf in leaves):
                    continue
                if any(name_of(leaf) in names or (isinstance(leaf, ast.Constant)
                                                  and leaf.value in statuses) for leaf in leaves):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and name_of(node.func) in constructors:
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr in flags:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_runs_works_out_the_tree_size_bound():
    # gamma(N) caps a simple cycle and feeds the base-run bound; `runs`
    # works it out once, in `base_run_bound`, and every other module reads
    # the `BaseRunBound` record
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "tree_size_bound":
                    found.append(path.name)
    assert found and set(found) == {"runs.py"}
