"""Only the group models decide by group family; no other module of the package dispatches on it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "soficrank"
FAMILIES = {"FreeAbelian", "FiniteByTable"}
# random_singular_kernel's `wide` construction shifts by a Z^k vector, so it names Z^k.
ALLOWED = {("corpus.py", "random_singular_kernel")}


def names(node) -> set:
    """Every name, attribute and imported name under node."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def family_checks(path: Path) -> list:
    """(file name, enclosing function) of every isinstance call that tests for a group family."""
    hits = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and FAMILIES & names(child.args[1])
            ):
                hits.append((path.name, function))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return hits


def test_only_group_models_dispatch_on_group_family():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "groups.py" for hit in family_checks(path)]
    assert set(hits) <= ALLOWED, hits


def test_builders_do_not_name_a_group_family():
    for name in ("sofic.py", "transfer.py"):
        assert not FAMILIES & names(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))), name
