from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from oracles import min_pairwise_distance, symmetric_group_5
from soficrank.cli import main
from soficrank.digraph import LabeledDigraph, distance, write_graph_file
from soficrank.errors import ApproximationTooCoarse, PreconditionDensity
from soficrank.groups import FreeAbelian, cayley_ball, cyclic_group, read_finite_group_file
from soficrank.sofic import quotient_graph, verify_approximation
from soficrank.weiss import weiss_select

Z1 = FreeAbelian(1)


def select(graph, good, r0, group=Z1, radius=None):
    """Verify `good` at radius 2*r0+1 (or `radius`) with epsilon 1/2, then select."""
    radius = 2 * r0 + 1 if radius is None else radius
    approx = verify_approximation(graph, good, Fraction(1, 2), radius, group)
    return weiss_select(approx, r0)


class TestGreedyOnCycles:
    def test_c12_all_good_r0_one(self):
        graph = quotient_graph(Z1, 12)
        sel = select(graph, range(12), 1)
        assert sel.v1 == (0, 3, 6, 9)
        assert sel.achieved_density == Fraction(4, 12)
        assert sel.density_bound == Fraction(1, 14)
        assert sel.achieved_density >= sel.density_bound
        assert sel.min_pairwise_distance == 3

    def test_single_vertex_graph(self):
        G = cyclic_group(1)
        graph = quotient_graph(G)
        sel = select(graph, [0], 0, group=G)
        assert sel.v1 == (0,)
        assert sel.min_pairwise_distance is None

    def test_c12_even_vertices_only(self):
        graph = quotient_graph(Z1, 12)
        sel = select(graph, range(0, 12, 2), 1)
        assert 0 in sel.v1
        assert sel.v1 == (0, 4, 8)
        assert len(sel.v1) >= 1
        for u in sel.v1:
            for w in sel.v1:
                if u != w:
                    assert distance(graph, u, w) >= 3

    def test_density_precondition(self):
        graph = quotient_graph(Z1, 12)
        approx = verify_approximation(graph, range(5), Fraction(3, 5), 3, Z1)
        with pytest.raises(PreconditionDensity):
            weiss_select(approx, 1)

    def test_ball_radius_validated(self):
        graph = quotient_graph(Z1, 12)
        with pytest.raises(ApproximationTooCoarse):
            select(graph, range(12), 1, radius=2)

    def test_bad_vertex_in_good_set(self, tmp_path, capsys):
        # A path without the identity self-loop: no vertex has a 1-chart, and
        # the CLI names the lowest one.
        graph = LabeledDigraph(4, 3, [(0, 1, 0), (1, 2, 0), (2, 3, 0),
                                      (1, 0, 1), (2, 1, 1), (3, 2, 1)])
        path = tmp_path / "path.graph"
        write_graph_file(path, graph)
        assert main(["weiss-select", str(path), "-g", "Z^1", "--r0", "0"]) == 1
        assert "at vertex 0 " in capsys.readouterr().err

    def test_label_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "c12.graph"
        write_graph_file(path, quotient_graph(Z1, 12))
        assert main(["weiss-select", str(path), "-g", "Z^2", "--r0", "1"]) == 1
        assert "5 generators" in capsys.readouterr().err


class TestEdgeCases:
    def test_empty_graph_rejected_before_any_density(self):
        approx = verify_approximation(LabeledDigraph(0, 3, []), [], Fraction(1, 2), 3, Z1)
        with pytest.raises(ValueError, match="^the approximation has no vertices to select from$"):
            weiss_select(approx, 1)

    def test_finite_ball_short_of_the_separation(self):
        # C7 has diameter 3 < 2*r0 + 1 = 7: both ball sizes clamp to the whole group
        G = cyclic_group(7)
        sel = select(quotient_graph(G), range(7), 3, group=G)
        assert sel.v1 == (0,)
        assert sel.density_bound == Fraction(1, 14)
        assert sel.min_pairwise_distance is None


class TestGuarantees:
    @pytest.mark.parametrize("n,r0", [(8, 0), (12, 1), (20, 2), (30, 1)])
    def test_torus_guarantees(self, n, r0):
        graph = quotient_graph(Z1, n)
        ball = cayley_ball(Z1, 2 * r0 + 1)
        sel = select(graph, range(n), r0)
        assert len(sel.v1) * 2 * ball.size >= n
        for u in sel.v1:
            for w in sel.v1:
                if u != w:
                    assert distance(graph, u, w) >= 2 * r0 + 1
                    assert distance(graph, w, u) >= 2 * r0 + 1

    def test_finite_group_guarantees(self):
        G = cyclic_group(9)
        graph = quotient_graph(G)
        r0 = 1
        ball = cayley_ball(G, 2 * r0 + 1)
        sel = select(graph, range(9), r0, group=G)
        assert len(sel.v1) * 2 * ball.size >= 9
        for u in sel.v1:
            for w in sel.v1:
                if u != w:
                    assert distance(graph, u, w) >= 3

    def test_selection_within_good_set(self):
        graph = quotient_graph(Z1, 16)
        good = list(range(0, 16, 2))
        sel = select(graph, good, 1)
        assert set(sel.v1) <= set(good)

    def test_larger_verified_radius_selects_the_same(self):
        # Charts verified at a larger radius give the same discard prefixes.
        graph = quotient_graph(Z1, 30)
        assert select(graph, range(30), 1, radius=6).v1 == select(graph, range(30), 1).v1


S3 = read_finite_group_file(Path(__file__).parent / "data" / "golden" / "s3.table")
S5 = symmetric_group_5()
Z2 = FreeAbelian(2)


def open_path(n):
    """The n-cycle of Z^1 without its wrap-around edges between n-1 and 0."""
    return LabeledDigraph(n, 3, [e for e in quotient_graph(Z1, n).edges() if abs(e[0] - e[1]) <= 1])


class TestMinPairwiseDistanceOracle:
    """min_pairwise_distance against a full BFS from every pick."""

    @pytest.mark.parametrize(
        "graph, good, r0, group, expected",
        [
            (quotient_graph(Z1, 12), range(12), 1, Z1, 3),
            # picks 0, 5, 8, 11: the nearest pair (5, 8) holds neither the
            # first pick nor, from 5 or 8, the first other pick in order
            (quotient_graph(Z1, 16), [0, 1, 2, 5, 6, 7, 8, 9, 10, 11], 1, Z1, 3),
            (quotient_graph(Z1, 30), range(30), 2, Z1, 5),
            (quotient_graph(Z2, 8), range(64), 1, Z2, 3),
            (quotient_graph(Z2, 8), range(0, 64, 2), 1, Z2, 3),
            (quotient_graph(S3), range(6), 0, S3, 1),
            (quotient_graph(S3), range(6), 1, S3, 3),
            (quotient_graph(S3), range(6), 2, S3, None),  # one pick
            (quotient_graph(S5), range(120), 1, S5, 3),
            (quotient_graph(S5), range(0, 120, 2), 0, S5, 1),
            (quotient_graph(S5), range(120), 4, S5, 9),
            (quotient_graph(S5), range(120), 5, S5, None),  # one pick
            (quotient_graph(Z1, 12), range(0, 12, 2), 1, Z1, 4),
            (open_path(40), range(3, 37), 1, Z1, 3),
        ],
    )
    def test_matches_all_pairs_bfs(self, graph, good, r0, group, expected):
        sel = select(graph, good, r0, group=group)
        assert sel.min_pairwise_distance == min_pairwise_distance(graph, sel.v1) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 1), st.data())
    def test_random_good_sets_on_tori(self, k, r0, data):
        group = FreeAbelian(k)
        n = data.draw(st.integers(4 * r0 + 4, 14 if k == 1 else 8))
        size = n**k
        good = data.draw(st.sets(st.integers(0, size - 1), min_size=(size + 1) // 2))
        graph = quotient_graph(group, n)
        sel = select(graph, good, r0, group=group)
        assert sel.min_pairwise_distance == min_pairwise_distance(graph, sel.v1)
