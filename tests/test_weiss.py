from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import cyclic_group, min_pairwise_distance, symmetric_group_5, write_graph_file
from test_digraph import perturbed_tori
from soficrank.cli import main
import numpy as np

from soficrank.digraph import LabeledDigraph, ball_charts, distance, distances
from soficrank.errors import ApproximationTooCoarse, InternalInconsistency, PreconditionDensity
from soficrank.groups import FreeAbelian, cayley_ball, read_finite_group_file
from soficrank.sofic import quotient_graph, verify_approximation
from soficrank import weiss
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

    def test_single_pick_walks_nothing(self, monkeypatch):
        def refuse(graph, picks):
            raise AssertionError("a single pick has no other pick to walk to")

        monkeypatch.setattr(weiss, "_nearest_by_distances", refuse)
        G = cyclic_group(7)
        sel = select(quotient_graph(G), range(7), 3, group=G)
        assert (sel.v1, sel.min_pairwise_distance) == ((0,), None)


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

    @pytest.mark.parametrize("rows", [1, 4, 9])
    def test_sweep_in_small_blocks_picks_the_same(self, monkeypatch, rows):
        # the five-vertex discard rows converted one, four or nine at a time, on a good set with gaps
        graph, good = quotient_graph(Z1, 40), [v for v in range(40) if v % 7 != 3]
        whole = select(graph, good, 1)
        monkeypatch.setattr(weiss, "_BLOCK_ENTRIES", rows * 5**2)
        sel = select(graph, good, 1)
        assert (sel.v1, sel.min_pairwise_distance) == (whole.v1, whole.min_pairwise_distance)

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


def copies(graph, count=2):
    """Disjoint copies of the graph, the k-th shifted by k*|V|: no copy reaches another."""
    n = graph.vertex_count
    shifts = range(0, count * n, n)
    return LabeledDigraph(count * n, graph.num_labels, [(s + k, d + k, l) for k in shifts for s, d, l in graph.edges()])


def forward_path(n):
    """The path 0 -> 1 -> ... -> n-1 on label 0 alone, with the identity loops: nothing reaches back."""
    return LabeledDigraph(n, 3, [(v, v + 1, 0) for v in range(n - 1)] + [(v, v, 2) for v in range(n)])


class TestBatchedWalk:
    """The search from a batch of picks beyond the charts, one `distances` search per pick, against networkx shortest paths from every pick."""

    @staticmethod
    def check_search(graph, picks):
        depth, other = weiss._nearest_by_distances(graph, tuple(picks))
        reference = nx.DiGraph()
        reference.add_nodes_from(range(graph.vertex_count))
        reference.add_edges_from((s, d) for s, d, _ in graph.edges())
        for u, d, w in zip(picks, depth.tolist(), other.tolist()):
            reach = nx.single_source_shortest_path_length(reference, u)
            nearest = min((reach[x] for x in picks if x != u and x in reach), default=None)
            if nearest is None:
                assert (d, w) == (-1, -1), u
            else:
                assert d == nearest and w in picks and w != u and reach[w] == d, u
        assert min(depth[depth >= 0].tolist(), default=None) == min_pairwise_distance(graph, picks)

    @settings(max_examples=40, deadline=None)
    @given(perturbed_tori(), st.data())
    def test_perturbed_tori(self, case, data):
        _, graph = case
        picks = sorted(data.draw(st.sets(st.integers(0, graph.vertex_count - 1), min_size=2)))
        self.check_search(graph, picks)

    @pytest.mark.parametrize("block", [1, 2, 1000])
    @pytest.mark.parametrize(
        "graph, picks",
        [
            (forward_path(12), [0, 5, 11]),  # 11 reaches no pick
            (forward_path(12), [3, 4]),
            (open_path(20), [0, 7, 19]),
            (copies(quotient_graph(Z1, 6)), [0, 6]),  # neither reaches the other
            (copies(quotient_graph(Z1, 6)), [0, 3, 6, 8]),
        ],
    )
    def test_open_paths_and_unreachable_picks(self, graph, picks, block):
        # the first `block` picks: a lone pick, a pair, and the whole batch
        self.check_search(graph, picks[:block])

    @pytest.mark.parametrize("block", [1, 2])
    def test_selection_in_small_blocks(self, block):
        # the selection on a graph of `block` disjoint copies of a small graph
        graph = copies(quotient_graph(Z1, 16), block)
        good = [v + 16 * k for k in range(block) for v in [0, 1, 2, 5, 6, 7, 8, 9, 10, 11]]
        sel = select(graph, good, 1)
        assert sel.min_pairwise_distance == min_pairwise_distance(graph, sel.v1) == 3
        # one pick on each copy of C7, and no distance between them
        G = cyclic_group(7)
        sel = select(copies(quotient_graph(G), block), range(7 * block), 3, group=G)
        assert (sel.v1, sel.min_pairwise_distance) == (tuple(range(0, 7 * block, 7)), None)


@st.composite
def charted_graphs(draw):
    """(group, graph): a perturbed torus, an open path of Z^1, or the Cayley graph of S3 or S5."""
    kind = draw(st.sampled_from(["torus", "path", "finite"]))
    if kind == "torus":
        return draw(perturbed_tori())
    if kind == "path":
        return Z1, open_path(draw(st.integers(2, 30)))
    group = draw(st.sampled_from([S3, S5]))
    return group, quotient_graph(group)


def nearest_by_bfs(graph, u, picks, radius):
    """(distance, pick) of the first other pick a BFS from u meets within radius, or None."""
    return next(((x, depth) for x, depth in distances(graph, u, radius) if x != u and x in picks), None)


class TestChartRead:
    """The nearest other pick read off the charts, against a BFS from every pick."""

    @settings(max_examples=60, deadline=None)
    @given(charted_graphs(), st.integers(0, 4), st.sets(st.integers(0, 999), min_size=1))
    @example((S3, quotient_graph(S3)), 0, {0, 1, 2})  # the one-element ball
    def test_matches_bfs(self, case, radius, draws):
        group, graph = case
        ball = cayley_ball(group, radius)
        charts, ok = ball_charts(graph, range(graph.vertex_count), ball)
        charted = np.flatnonzero(ok).tolist()  # row k of charts is vertex k
        if not charted:
            return
        rows = np.array(sorted({charted[i % len(charted)] for i in draws}))
        depth, other = weiss._nearest_in_charts(charts, rows, ball.layers.tolist(), graph.vertex_count)
        picks = set(rows.tolist())
        for u, d, w in zip(rows.tolist(), depth.tolist(), other.tolist()):
            near = nearest_by_bfs(graph, u, picks, radius)
            if near is None:  # none within the chart's radius: the walk's case
                assert (d, w) == (-1, -1), u
            else:
                assert d == near[1] and w in picks and w != u and distance(graph, u, w) == d, u

    def test_charts_settle_a_torus_without_the_walk(self, monkeypatch):
        def refuse(graph, picks):
            raise AssertionError("a pick sees another within its chart")

        monkeypatch.setattr(weiss, "_nearest_by_distances", refuse)
        graph = quotient_graph(Z1, 16)
        sel = select(graph, [0, 1, 2, 5, 6, 7, 8, 9, 10, 11], 1)
        assert sel.min_pairwise_distance == min_pairwise_distance(graph, sel.v1) == 3

    @pytest.mark.parametrize(
        "graph, good, r0, group, v1, expected",
        [
            # picks 0 and 6 of C12, farther apart than the radius-3 charts
            (quotient_graph(Z1, 12), [0, 1, 2, 6, 7, 8], 1, Z1, (0, 6), 6),
            # one pick on each copy of C7: neither reaches the other
            (copies(quotient_graph(cyclic_group(7))), range(14), 3, cyclic_group(7), (0, 7), None),
        ],
    )
    def test_picks_beyond_the_charts_fall_back_to_the_walk(self, graph, good, r0, group, v1, expected, monkeypatch):
        walks = []
        walk = weiss._nearest_by_distances

        def counting(graph, picks):
            walks.append(picks)
            return walk(graph, picks)

        monkeypatch.setattr(weiss, "_nearest_by_distances", counting)
        sel = select(graph, good, r0, group=group)
        assert sel.v1 == v1 and walks == [v1]
        assert sel.min_pairwise_distance == min_pairwise_distance(graph, v1) == expected

    def test_too_close_pair_is_inconsistent(self, monkeypatch):
        # picks 0, 2, 6, 9 of C12, at the same chart rows since every vertex is good: 2 is the only pick within distance 2 of 0
        monkeypatch.setattr(weiss, "_sweep", lambda good, charts, discard_size, n: np.array([0, 2, 6, 9]))
        graph = quotient_graph(Z1, 12)
        assert nearest_by_bfs(graph, 0, {0, 2, 6, 9}, 3) == (2, 2)
        with pytest.raises(InternalInconsistency, match=r"^selected vertices 0, 2 at directed distance 2 < 3$"):
            select(graph, range(12), 1)
