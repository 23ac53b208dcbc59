"""Seams of the package.

Only the group models decide by group family; no other module of the
package dispatches on it, and each family implements the whole model
interface.  Every public definition is reached from the
package or the benchmark, and the top level holds the user API only.
Input files are read and decoded in one place, errors.read_utf8.
No dense FpMatrix is built on the transfer-run path, and upper mode reads
the Weiss separation off the charts without the fallback search.  A
Cayley ball is built from its model's ball_table, with no group product,
and each group model holds one ball, from which every smaller radius is cut.
digraph has one chart walker, ball_charts; ball_isomorphism answers through it.
The good set, V' and V'' are read-only int64 arrays from verification to the report,
and the charts keep the walk's width from the approximation to the instance.
Only limits.py reads the environment, and every domain error is one of the
four kinds the CLI maps to an exit code.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import soficrank
from oracles import ball_isomorphism, dihedral_group, symmetric_group_5
from soficrank import cli, digraph, errors, exactfield, groupring, sofic, transfer, weiss
from soficrank.cli import main
from soficrank.groups import CayleyBall, FiniteByTable, FreeAbelian, GroupModel, cayley_ball
from test_bench_contract import traced_names
from test_golden import CASES, _argv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soficrank"
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


def input_reads(path: Path) -> list:
    """(file name, line) of every call that opens a file for reading, reads a file's bytes or text, or decodes bytes."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("read_bytes", "read_text", "decode"):
            hits.append((path.name, node.lineno))
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and not set(mode.value) & set("r+")):
                hits.append((path.name, node.lineno))
    return hits


def test_input_files_are_read_in_one_place():
    """Only errors.read_utf8 reads an input file and decodes it; writers open files for writing only."""
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py" for hit in input_reads(path)]
    assert hits == []
    assert input_reads(PACKAGE / "errors.py")  # the check sees the reader itself


def test_only_group_models_dispatch_on_group_family():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "groups.py" for hit in family_checks(path)]
    assert set(hits) <= ALLOWED, hits


def test_builders_do_not_name_a_group_family():
    for name in ("sofic.py", "transfer.py"):
        assert not FAMILIES & names(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))), name


# What a group family implements: GroupModel's methods that raise NotImplementedError.
MODEL_INTERFACE = {
    "identity",
    "_mul",
    "inverse",
    "contains",
    "word_length",
    "ball_size",
    "ball_table",
    "kernel_complete_radius",
    "quotient_side",
    "quotient_table",
    "random_element",
    "describe",
    "format_element",
    "parse_element",
}


def test_each_group_family_implements_the_model_interface():
    tree = ast.parse((PACKAGE / "groups.py").read_text(encoding="utf-8"))
    model = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GroupModel")
    required = {
        f.name
        for f in model.body
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Raise) and "NotImplementedError" in names(n) for n in ast.walk(f))
    }
    assert required == MODEL_INTERFACE
    for family in (soficrank.FreeAbelian, soficrank.FiniteByTable):
        assert required <= set(vars(family)), (family.__name__, required - set(vars(family)))


# kernel_basis waits for its production caller, the upper-mode kernel witnesses of ROADMAP item 5.
UNREFERENCED = {"kernel_basis"}

USER_API = {
    "CayleyBall",
    "FiniteByTable",
    "FpMatrix",
    "FpSparse",
    "FreeAbelian",
    "GroupRingKernel",
    "LabeledDigraph",
    "SoficApproximation",
    "TransferInstance",
    "TransferReport",
    "WeissSelection",
    "ball_charts",
    "build_instance",
    "cayley_ball",
    "check_right_inverse",
    "choose_epsilon",
    "compose",
    "kernel_basis",
    "kernel_radius",
    "lower_bound_check",
    "plan_instance",
    "quotient_approximation",
    "quotient_graph",
    "rank",
    "restriction_matrix",
    "run_experiment",
    "sparse_bar_phi",
    "support_data",
    "upper_bound_check",
    "verify_approximation",
    "verify_transfer_identity",
    "weiss_select",
}
# Benchmark-traced references and test fixtures: defined in their modules or in tests/oracles.py, not top level.
NOT_TOP_LEVEL = {
    "ball_isomorphism",
    "distance",
    "neighborhood",
    "mat_mul",
    "build_bar_phi",
    "build_bar_psi",
    "torus_approximation",
    "finite_group_approximation",
    "cyclic_group",
    "direct_product_table",
    "random_kernel",
    "write_graph_file",
}


def test_every_public_definition_is_referenced_or_traced():
    """Each public function or class of the package is named under src/ or bench/ outside its own definition, or traced.

    The package's __init__ re-exports do not count as references.
    """
    paths = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths + sorted(ROOT.glob("bench/*.py"))}
    allowed = {name for _, name in traced_names()} | UNREFERENCED
    unreferenced = []
    for path in paths:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_") or node.name in allowed:
                continue
            others = [tree for other, tree in trees.items() if other != path]
            others += [n for n in trees[path].body if n is not node]
            if not any(node.name in names(other) for other in others):
                unreferenced.append(f"{path.name}:{node.name}")
    assert unreferenced == []


def test_top_level_is_the_user_api():
    assert len(soficrank.__all__) == len(USER_API) and set(soficrank.__all__) == USER_API
    assert all(callable(getattr(soficrank, name)) for name in USER_API)
    assert not NOT_TOP_LEVEL & set(vars(soficrank))


@pytest.mark.parametrize("name", sorted(name for name, (_, argv) in CASES.items() if argv[0] == "transfer-run"))
def test_transfer_run_builds_no_dense_matrix(name, tmp_path, monkeypatch):
    """The verdict path, from parsing to report, constructs no FpMatrix."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an FpMatrix was built on the transfer-run path")

    monkeypatch.setattr(exactfield.FpMatrix, "__init__", refuse)
    assert main(_argv(name, tmp_path / f"{name}.json")) == CASES[name][0]


def _upper_mode_cases() -> list[str]:
    """The golden transfer-run cases whose mode runs the upper chain."""
    return sorted(name for name, (_, argv) in CASES.items() if argv[0] == "transfer-run" and argv[argv.index("--mode") + 1] != "lower")


@pytest.mark.parametrize("name", _upper_mode_cases())
def test_upper_mode_reads_the_separation_off_the_charts(name, tmp_path, monkeypatch):
    """Every golden upper-mode selection has a pick within the charts' radius of another, or a single pick."""

    def refuse(graph, picks):
        raise AssertionError("the Weiss check fell back to the search")

    monkeypatch.setattr(weiss, "_nearest_by_distances", refuse)
    assert main(_argv(name, tmp_path / f"{name}.json")) == CASES[name][0]


def test_only_weiss_c12_even_searches_beyond_the_charts(tmp_path, monkeypatch):
    """Of the golden runs only weiss_c12_even searches, once: its picks 0, 4 and 8 lie 4 > R = 3 apart, beyond every chart."""
    searches = []
    search = weiss._nearest_by_distances

    def counting(graph, picks):
        searches.append((name, picks))
        return search(graph, picks)

    monkeypatch.setattr(weiss, "_nearest_by_distances", counting)
    for name in sorted(CASES):
        assert main(_argv(name, tmp_path / f"{name}.json")) == CASES[name][0]
    assert searches == [("weiss_c12_even", (0, 4, 8))]


def test_ball_build_computes_no_products(monkeypatch):
    """Fresh balls of Z^1-Z^3, S5 and D98, the last two past their diameters, come without _mul or multiply."""
    fresh = [(FreeAbelian(k), 9 - 2 * k) for k in (1, 2, 3)] + [(symmetric_group_5(), 20), (dihedral_group(98), 97)]

    def refuse(self, a, b):
        raise AssertionError("a ball build computed a group product")

    for model in (GroupModel, FreeAbelian, FiniteByTable):
        monkeypatch.setattr(model, "_mul", refuse)
    monkeypatch.setattr(GroupModel, "multiply", refuse)
    for group, r in fresh:
        assert cayley_ball(group, r).size == group.ball_size(r)


@pytest.mark.parametrize("name", sorted(name for name, (_, argv) in CASES.items() if argv[0] == "transfer-run"))
def test_smaller_balls_are_cut_from_the_ball_in_hand(name, tmp_path, monkeypatch):
    """build_instance and support_walk ask cayley_ball for nothing, each group model holds one ball and no
    per-radius store, and no run reads a position in its approximation's radius-R ball."""
    callers, groups, approxes = [], [], []

    def recording(group, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        groups.append(group)
        return cayley_ball(group, *args, **kwargs)

    for module in (cli, groupring, sofic, transfer):
        if hasattr(module, "cayley_ball"):
            monkeypatch.setattr(module, "cayley_ball", recording)
    build = transfer.build_instance

    def building(phi, psi, approx, **kwargs):
        approxes.append(approx)
        return build(phi, psi, approx, **kwargs)

    monkeypatch.setattr(transfer, "build_instance", building)
    assert main(_argv(name, tmp_path / f"{name}.json")) == CASES[name][0]
    assert callers and not {"build_instance", "support_walk"} & set(callers), callers
    for group in groups:
        held = [v for v in vars(group).values() if isinstance(v, CayleyBall)]
        stores = [v for v in vars(group).values() if isinstance(v, dict) and any(isinstance(b, CayleyBall) for b in v.values())]
        assert len(held) == 1 and not stores
    (approx,) = approxes
    assert "element_index" not in vars(approx.ball)


def golden_instance(name, tmp_path, monkeypatch):
    """The one TransferInstance that the golden run `name` builds."""
    instances = []
    build = transfer.build_instance

    def building(phi, psi, approx, **kwargs):
        instances.append(build(phi, psi, approx, **kwargs))
        return instances[-1]

    monkeypatch.setattr(transfer, "build_instance", building)
    assert main(_argv(name, tmp_path / f"{name}.json")) == CASES[name][0]
    (inst,) = instances
    return inst


@pytest.mark.parametrize("name", sorted(name for name, (_, argv) in CASES.items() if argv[0] == "transfer-run"))
def test_vertex_sets_are_read_only_int64_arrays(name, tmp_path, monkeypatch):
    """The good set, V' and V'' of every golden run are sorted, read-only int64 arrays, as the instance hands them on."""
    inst = golden_instance(name, tmp_path, monkeypatch)
    for vertices in (inst.approx.good_vertices, inst.v_prime, inst.v_dprime):
        assert type(vertices) is np.ndarray and vertices.dtype == np.int64 and not vertices.flags.writeable
        assert (np.diff(vertices) > 0).all()


@pytest.mark.parametrize("name", sorted(name for name, (_, argv) in CASES.items() if argv[0] == "transfer-run"))
def test_charts_keep_the_walk_width(name, tmp_path, monkeypatch):
    """The approximation's and the instance's charts of every golden run stay in the walk's width, _walk_dtype(|V|, |B|)."""
    inst = golden_instance(name, tmp_path, monkeypatch)
    graph = inst.approx.graph
    width = digraph._walk_dtype(graph.vertex_count, graph.num_labels)
    assert inst.approx.charts.dtype == width and inst.charts.dtype == width


def test_ball_isomorphism_answers_through_ball_charts(monkeypatch):
    """digraph.ball_isomorphism is ball_charts at one vertex, so the package has no second chart walker."""
    calls = []
    charts = digraph.ball_charts

    def recording(graph, vertices, ball):
        calls.append(list(vertices))
        return charts(graph, vertices, ball)

    monkeypatch.setattr(digraph, "ball_charts", recording)
    ball = cayley_ball(FreeAbelian(1), 2)
    graph = sofic.quotient_graph(FreeAbelian(1), 6)
    for v in (0, 5):
        assert digraph.ball_isomorphism(graph, v, ball) == ball_isomorphism(graph, v, ball)
    assert calls == [[0], [5]]


def test_every_domain_error_has_an_exit_code():
    """Each SoficRankError is one of the four kinds cli.main maps to an exit code, and none is raised bare."""
    kinds = (errors.ParseError, errors.ResourceLimitError, errors.InternalInconsistency, errors.CheckFailedError)
    subclasses = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.SoficRankError)]
    assert len(subclasses) > len(kinds)  # the check sees the kinds' own subclasses
    assert all(issubclass(c, kinds) for c in subclasses if c is not errors.SoficRankError)
    raises = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None and "SoficRankError" in names(node.exc)
    ]
    assert raises == []


def test_environment_is_read_in_one_place():
    """Only limits.py reads the environment: os.environ and os.getenv appear nowhere else in the package."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {name for name, tree in trees.items() if {"environ", "getenv"} & names(tree)}
    assert reads == {"limits.py"}
