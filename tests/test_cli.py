import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from soficrank.cli import (
    _build_parser,
    format_instance,
    main,
    parse_group_descriptor,
    parse_instance_text,
)
from soficrank.digraph import write_graph_file
from soficrank.errors import ParseError
from soficrank.groups import FreeAbelian, cyclic_group, write_finite_group_file
from soficrank.sofic import quotient_graph

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

INVOLUTION_RING = """\
ring p=2 d=2 group=Z^1
element x
term 1,0;0,1 @ 0
term 0,1;0,0 @ 1
element y
term 1,0;0,1 @ 0
term 0,1;0,0 @ 1
experiment df-check x y
experiment transfer x y
"""

SINGULAR_RING = """\
ring p=2 d=2 group=Z^1
element s
term 1,0;0,0 @ 0
experiment transfer s
"""


@pytest.fixture
def involution_file(tmp_path):
    path = tmp_path / "inv.ring"
    path.write_text(INVOLUTION_RING)
    return path


@pytest.fixture
def c12_graph(tmp_path):
    path = tmp_path / "c12.graph"
    write_graph_file(path, quotient_graph(FreeAbelian(1), 12))
    return path


class TestInstanceParsing:
    def test_round_trip_canonical(self):
        inst = parse_instance_text(INVOLUTION_RING)
        text = format_instance(inst)
        again = parse_instance_text(text)
        assert format_instance(again) == text
        assert again.elements == inst.elements
        assert again.directives == inst.directives

    def test_elements_parsed(self):
        inst = parse_instance_text(INVOLUTION_RING)
        assert set(inst.elements) == {"x", "y"}
        assert inst.elements["x"].support_radius() == 1

    def test_rejects_term_before_element(self):
        with pytest.raises(ParseError):
            parse_instance_text("ring p=2 d=1 group=Z^1\nterm 1 @ 0\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_instance_text("ring p=2 group=Z^1\n")

    def test_rejects_duplicate_term(self):
        text = "ring p=2 d=1 group=Z^1\nelement a\nterm 1 @ 0\nterm 1 @ 0\n"
        with pytest.raises(ParseError):
            parse_instance_text(text)

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(ParseError):
            parse_instance_text("ring p=2 d=2 group=Z^1\nelement a\nterm 1 @ 0\n")

    def test_finite_group_descriptor(self, tmp_path):
        table = tmp_path / "c6.table"
        write_finite_group_file(table, cyclic_group(6))
        group = parse_group_descriptor(f"finite:{table}")
        assert group.size == 6

    def test_bad_descriptor(self):
        with pytest.raises(ParseError):
            parse_group_descriptor("Q8")


class TestSubcommands:
    def test_cayley_ball(self, tmp_path, capsys):
        out = tmp_path / "ball.json"
        code = main(["cayley-ball", "-g", "Z^1", "-r", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["size"] == 7

    def test_cayley_ball_z2(self, tmp_path):
        out = tmp_path / "ball.json"
        assert main(["cayley-ball", "-g", "Z^2", "-r", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["size"] == 13

    def test_cayley_ball_radius_zero(self, tmp_path):
        out = tmp_path / "ball.json"
        assert main(["cayley-ball", "-g", "Z^1", "-r", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["size"] == 1

    def test_sofic_verify_pass_and_fail(self, tmp_path, c12_graph):
        out = tmp_path / "v.json"
        code = main([
            "sofic-verify", str(c12_graph), "-g", "Z^1", "-r", "2", "-e", "1/10",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["payload"]["verified"] is True

        c5 = tmp_path / "c5.graph"
        write_graph_file(c5, quotient_graph(FreeAbelian(1), 5))
        fail_out = tmp_path / "fail.json"
        assert main(["sofic-verify", str(c5), "-g", "Z^1", "-r", "2", "--out", str(fail_out)]) == 1
        fail_payload = json.loads(fail_out.read_text())["payload"]
        assert fail_payload["verified"] is False
        assert fail_payload["failing_vertex"] == 0

    def test_weiss_select(self, tmp_path, c12_graph):
        out = tmp_path / "w.json"
        code = main(["weiss-select", str(c12_graph), "-g", "Z^1", "--r0", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["v1"] == [0, 3, 6, 9]
        assert payload["min_pairwise_distance"] == 3

    def test_df_check(self, tmp_path, involution_file):
        out = tmp_path / "df.json"
        code = main(["df-check", str(involution_file), "x", "y", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["xy_is_identity"] is True
        assert payload["yx_is_identity"] is True

    def test_df_check_uses_directive(self, involution_file):
        assert main(["df-check", str(involution_file)]) == 0

    def test_df_check_non_inverse(self, tmp_path):
        path = tmp_path / "plus.ring"
        path.write_text(
            "ring p=2 d=1 group=Z^1\nelement x\nterm 1 @ 0\nterm 1 @ 1\n"
            "element y\nterm 1 @ 0\n"
        )
        out = tmp_path / "df.json"
        assert main(["df-check", str(path), "x", "y", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["xy_is_identity"] is False
        assert payload["yx_is_identity"] is False

    def test_transfer_lower(self, tmp_path, involution_file):
        out = tmp_path / "t.json"
        code = main([
            "transfer-run", str(involution_file), "x", "y",
            "--mode", "lower", "--torus-n", "12", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["verdict"] == "LOWER_HOLDS"
        assert payload["bar_phi_rank"] == 24

    def test_transfer_upper(self, tmp_path):
        path = tmp_path / "sing.ring"
        path.write_text(SINGULAR_RING)
        out = tmp_path / "t.json"
        code = main([
            "transfer-run", str(path), "--mode", "upper", "--torus-n", "12",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["verdict"] == "UPPER_HOLDS"
        assert payload["weiss"]["v1"] == [0, 3, 6, 9]

    def test_parse_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.ring"
        assert main(["df-check", str(missing), "x", "y"]) == 2

    def test_unknown_element_exit_code(self, involution_file):
        assert main(["df-check", str(involution_file), "x", "zz"]) == 2

    def test_resource_limit_exit_code(self, tmp_path):
        assert main(["cayley-ball", "-g", "Z^2", "-r", "40", "--max-ball", "50"]) == 3

    def test_bad_epsilon_exit_code(self, c12_graph):
        assert main(["sofic-verify", str(c12_graph), "-g", "Z^1", "-r", "2", "-e", "3/2"]) == 2

    def test_good_vertex_out_of_range(self, c12_graph):
        assert main(["sofic-verify", str(c12_graph), "-g", "Z^1", "-r", "2", "--good", "0,99"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["weiss-select", "--r0", "1"], ["sofic-verify", "-r", "2", "-e", "1/10"]],
        ids=["weiss-select", "sofic-verify"],
    )
    def test_duplicate_good_vertices_counted_once(self, tmp_path, c12_graph, argv):
        reports = []
        for good in ("0,0,2,4,6,8,10", "0,2,4,6,8,10"):
            out = tmp_path / "report.json"
            main([argv[0], str(c12_graph), "-g", "Z^1", *argv[1:], "--good", good, "--out", str(out)])
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1]  # same inputs_digest and payload

    def test_duplicate_good_vertices_failure_count(self, tmp_path, c12_graph):
        out = tmp_path / "fail.json"
        good = ",".join(["0"] * 11)
        argv = ["sofic-verify", str(c12_graph), "-g", "Z^1", "-r", "2", "-e", "1/10", "--good", good]
        assert main(argv + ["--out", str(out)]) == 1
        payload = json.loads(out.read_text())["payload"]
        assert payload["good_count"] == 1
        assert "|V0| = 1 <" in payload["failure"]

    def test_transfer_vertex_limit(self, involution_file):
        code = main([
            "transfer-run", str(involution_file), "x", "y", "--mode", "lower",
            "--max-vertices", "5",
        ])
        assert code == 3

    def test_transfer_too_small_torus_exit_code(self, involution_file):
        assert main([
            "transfer-run", str(involution_file), "x", "y", "--mode", "lower",
            "--torus-n", "8",
        ]) == 1


class TestLimits:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--max-ball", "--max-vertices", "--max-kernel-radius"])
    def test_transfer_rejects_nonpositive_flag(self, involution_file, flag, value, capsys):
        argv = ["transfer-run", str(involution_file), "x", "y", "--mode", "lower", "--torus-n", "12"]
        assert main(argv + [flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_transfer_rejects_nonpositive_torus_side(self, involution_file, value, capsys):
        argv = ["transfer-run", str(involution_file), "x", "y", "--mode", "lower"]
        assert main(argv + ["--torus-n", value]) == 2
        assert "--torus-n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cayley_ball_rejects_nonpositive_max_ball(self, value):
        assert main(["cayley-ball", "-g", "Z^1", "-r", "1", "--max-ball", value]) == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "var",
        ["SOFICRANK_MAX_BALL_ELEMENTS", "SOFICRANK_MAX_VERTICES", "SOFICRANK_MAX_KERNEL_RADIUS"],
    )
    def test_rejects_nonpositive_environment(self, involution_file, monkeypatch, var, value, capsys):
        monkeypatch.setenv(var, value)
        argv = ["transfer-run", str(involution_file), "x", "y", "--mode", "lower", "--torus-n", "12"]
        assert main(argv) == 2
        assert var in capsys.readouterr().err

    def test_positive_limits_accepted(self, involution_file, monkeypatch):
        monkeypatch.setenv("SOFICRANK_MAX_KERNEL_RADIUS", "9")
        argv = ["transfer-run", str(involution_file), "x", "y", "--mode", "lower", "--torus-n", "12"]
        assert main(argv + ["--max-ball", "1000", "--max-vertices", "200"]) == 0


class TestGraphFileLimit:
    SUBCOMMANDS = [["sofic-verify", "-g", "Z^1", "-r", "2"], ["weiss-select", "-g", "Z^1", "--r0", "1"]]

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_oversized_header_exits_3(self, tmp_path, argv, capsys):
        path = tmp_path / "huge.graph"
        path.write_text("digraph 100000000000 3\n")
        assert main([argv[0], str(path), *argv[1:]]) == 3
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_environment_limit(self, c12_graph, monkeypatch, argv, capsys):
        assert main([argv[0], str(c12_graph), *argv[1:]]) == 0
        monkeypatch.setenv("SOFICRANK_MAX_VERTICES", "11")
        assert main([argv[0], str(c12_graph), *argv[1:]]) == 3
        assert "resource limit" in capsys.readouterr().err


class TestGraphLabelCount:
    """A header whose label count is not the group's generator count is ruled out before the out-table exists."""

    @pytest.mark.parametrize("labels", [7, 100_000_000_000])
    def test_sofic_verify_reports_the_mismatch(self, tmp_path, labels, capsys):
        path, out = tmp_path / "wide.graph", tmp_path / "r.json"
        path.write_text(f"digraph 5 {labels}\n0 1 0\n")
        assert main(["sofic-verify", str(path), "-g", "Z^1", "-r", "2", "-e", "1/7", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())["payload"]
        assert payload["verified"] is False and payload["vertex_count"] == 5 and payload["good_count"] == 5
        assert payload["failure"] == f"graph has {labels} labels but Z^1 has 3 generators"
        assert f"failure   graph has {labels} labels" in capsys.readouterr().out

    @pytest.mark.parametrize("labels", [7, 100_000_000_000])
    def test_weiss_select_reports_the_mismatch(self, tmp_path, labels, capsys):
        path = tmp_path / "wide.graph"
        path.write_text(f"digraph 5 {labels}\n")
        assert main(["weiss-select", str(path), "-g", "Z^1", "--r0", "1"]) == 1
        assert f"check failed: graph has {labels} labels but Z^1 has 3 generators" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, err",
        [
            (["-r", "-1", "-e", "1/7"], "radius must be nonnegative"),
            (["-r", "2", "-e", "3/2"], "epsilon must lie strictly between 0 and 1"),
            (["-r", "2", "-e", "1/7", "--good", "0,9"], "good vertex 9 out of range [0, 5)"),
        ],
    )
    def test_earlier_checks_keep_their_order(self, tmp_path, args, err, capsys):
        path = tmp_path / "wide.graph"
        path.write_text("digraph 5 100000000000\n")
        assert main(["sofic-verify", str(path), "-g", "Z^1", *args]) == 2
        assert err in capsys.readouterr().err

    def test_file_errors_come_first(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("digraph 3 7\n0 1 0\n1 2 9\n")
        assert main(["sofic-verify", str(path), "-g", "Z^1", "-r", "2", "-e", "1/7"]) == 2
        assert "edge (1,2,9) has an out-of-range label" in capsys.readouterr().err


class TestFiniteGroupFlags:
    """S3 (order 6) is its own approximation: no torus side, and its order counts as |V|."""

    ARGV = ["transfer-run", str(GOLDEN / "s3.ring"), "x", "x", "--mode", "lower"]

    def test_torus_side_rejected(self, capsys):
        assert main(self.ARGV + ["--torus-n", "12"]) == 2
        assert "Z^k" in capsys.readouterr().err

    def test_vertex_limit_below_order(self, capsys):
        assert main(self.ARGV + ["--max-vertices", "5"]) == 3
        assert "6 vertices exceeds limit 5" in capsys.readouterr().err

    def test_vertex_limit_at_order(self):
        assert main(self.ARGV + ["--max-vertices", "6"]) == 0


class TestPreconditionOwners:
    """Each precondition is checked once, by the function that owns it; the CLI prints that function's text."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["x", "y", "--mode", "lower", "--torus-n", "8"], 1,
             "check failed: torus side 8 cannot support verification radius 5; need n >= 12\n"),
            (["x", "--mode", "lower"], 1, "check failed: lower mode requires psi with phi o psi = identity\n"),
            (["x", "y", "--mode", "upper"], 1,
             "check failed: no kernel vector found up to radius 6; upper mode cannot run\n"),
        ],
        ids=["torus-side", "lower-without-inverse", "upper-without-kernel"],
    )
    def test_exit_code_and_stderr(self, involution_file, argv, code, err, capsys):
        assert main(["transfer-run", str(involution_file), *argv]) == code
        assert capsys.readouterr().err == err

    def test_finite_group_above_vertex_limit(self, capsys):
        argv = ["transfer-run", str(GOLDEN / "s3.ring"), "x", "x", "--mode", "lower", "--max-vertices", "5"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "resource limit: Cayley graph with 6 vertices exceeds limit 5\n"


class TestEmptyGraph:
    def test_weiss_select_rejects_it(self, tmp_path, capsys):
        path = tmp_path / "empty.graph"
        path.write_text("digraph 0 3\n")
        assert main(["weiss-select", str(path), "-g", "Z^1", "--r0", "1"]) == 2
        assert capsys.readouterr().err == "invalid input: the approximation has no vertices to select from\n"

    def test_sofic_verify_accepts_it(self, tmp_path):
        path, out = tmp_path / "empty.graph", tmp_path / "r.json"
        path.write_text("digraph 0 3\n")
        assert main(["sofic-verify", str(path), "-g", "Z^1", "-r", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["verified"] is True and payload["vertex_count"] == 0


class TestParserReuse:
    def test_built_on_first_use_not_at_import(self):
        code = "import soficrank.cli as cli; print(cli._build_parser.cache_info().currsize)"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        """A rejected argv, then golden cases of two subcommands, all in one process on the one parser."""
        with pytest.raises(SystemExit) as bad:
            main(["transfer-run", "--mode", "sideways"])
        assert bad.value.code == 2
        for name, argv, code in [
            ("weiss_c12", ["weiss-select", str(GOLDEN / "c12.graph"), "-g", "Z^1", "--r0", "1"], 0),
            ("transfer_z1_lower", ["transfer-run", str(GOLDEN / "z1.ring"), "x", "x", "--mode", "lower",
                                   "--torus-n", "12"], 0),
            ("sofic_c12_mismatch", ["sofic-verify", str(GOLDEN / "c12.graph"), "-g", "Z^1", "-r", "6"], 1),
        ]:
            out = tmp_path / f"{name}.json"
            assert main(argv + ["--out", str(out)]) == code
            assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
        assert _build_parser.cache_info().currsize == 1


class TestDeterminism:
    def _run_twice(self, argv, out_path):
        outputs = []
        for _ in range(2):
            assert main(argv + ["--out", str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
        return outputs

    def test_all_subcommands_byte_identical(self, tmp_path, involution_file, c12_graph):
        out = tmp_path / "r.json"
        cases = [
            ["cayley-ball", "-g", "Z^2", "-r", "3"],
            ["sofic-verify", str(c12_graph), "-g", "Z^1", "-r", "2", "-e", "1/7"],
            ["weiss-select", str(c12_graph), "-g", "Z^1", "--r0", "1"],
            ["df-check", str(involution_file), "x", "y"],
            ["transfer-run", str(involution_file), "x", "y", "--mode", "lower", "--torus-n", "12"],
        ]
        for argv in cases:
            first, second = self._run_twice(argv, out)
            assert first == second, f"non-deterministic output for {argv[0]}"
