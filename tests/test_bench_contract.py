"""The benchmark tracer wraps package functions by name; each must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names():
    """(module, name) pairs of bench/spans.py's TRACED table, read without executing the file."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    table = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    return [(module, name) for module, names in table.items() for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"soficrank.{module}"), name, None))
