"""The benchmark tracer wraps package functions by name; each must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from soficrank import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
GOLDEN = Path(__file__).parent / "data" / "golden"


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


def test_test_oracles_are_not_traced():
    # Dense references live in tests/oracles.py; the tracer must not look for them in the package.
    assert "commutative_square_matrix" not in {name for _, name in traced_names()}


def test_traced_experiments_run_and_count_rank_cells(capsys):
    # The tracer's counters read sizes off what the traced functions take and return
    # (rank's rows and cols, build_bar_phi's dense array); a format they cannot read crashes them.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    ring = str(GOLDEN / "z1.ring")
    with tracer.installed():
        for i, (elements, mode) in enumerate([(["x", "x"], "lower"), (["s"], "upper"), (["u"], "both")]):
            tracer.experiment = (i, mode)
            assert cli.main(["transfer-run", ring, *elements, "--mode", mode]) == 0
    capsys.readouterr()
    counted = {name for name, _, _ in tracer.counts}
    assert "exactfield.rank.cells" in counted
    assert {"exactfield.rank.calls", "transfer.run_experiment.calls"} <= set(tracer.per_pass()[2])
    assert set(tracer.layer_metrics([1.0, 1.0, 1.0])) == {name for name, _, _ in spans.PER_LAYER}
