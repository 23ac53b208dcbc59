import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import digraph_by_edge_loop, symmetric_group_5
from soficrank.digraph import (
    LabeledDigraph,
    ball_charts,
    ball_isomorphism,
    distance,
    distances,
    label_walk,
    neighborhood,
    read_graph_file,
    write_graph_file,
)
from soficrank.errors import ParseError, ResourceLimitError
from soficrank.groups import (
    CayleyBall,
    FreeAbelian,
    cayley_ball,
    cyclic_group,
    direct_product_table,
    read_finite_group_file,
)
from soficrank.sofic import quotient_graph

Z1 = FreeAbelian(1)


def three_cycle():
    return LabeledDigraph(3, 1, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])


class TestConstruction:
    def test_rejects_duplicate_out_label(self):
        with pytest.raises(ValueError):
            LabeledDigraph(3, 1, [(0, 1, 0), (0, 2, 0)])

    def test_rejects_duplicate_in_label(self):
        with pytest.raises(ValueError):
            LabeledDigraph(3, 1, [(0, 2, 0), (1, 2, 0)])

    def test_out_of_range_edges(self):
        with pytest.raises(ValueError):
            LabeledDigraph(2, 1, [(0, 5, 0)])
        with pytest.raises(ValueError):
            LabeledDigraph(2, 1, [(0, 1, 3)])

    def test_duplicate_identical_edge_is_idempotent(self):
        g = LabeledDigraph(2, 1, [(0, 1, 0), (0, 1, 0)])
        assert g.edge_count == 1

    def test_one_read_only_out_table(self):
        g = LabeledDigraph(3, 2, [(0, 1, 0), (2, 2, 1)])
        assert g.out.dtype == np.int64 and not g.out.flags.writeable
        assert g.out.tolist() == [[1, -1], [-1, -1], [-1, 2]]


@st.composite
def edge_lists(draw):
    """(|V|, |B|, edges) drawn from a small pool, so that lines repeat and clash.

    A few pool entries get one coordinate out of range: one past either
    end, or beyond int64.
    """
    n, labels = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, labels - 1))
    pool = [list(e) for e in draw(st.lists(entry, min_size=1, max_size=6))]
    if draw(st.booleans()):
        k, c = draw(st.integers(0, len(pool) - 1)), draw(st.integers(0, 2))
        pool[k][c] = draw(st.sampled_from([-1, labels if c == 2 else n, 2**63, -(2**70)]))
    edges = draw(st.lists(st.sampled_from([tuple(e) for e in pool]), max_size=14))
    return n, labels, edges


class TestConstructionOracle:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    @example((3, 1, [(0, 1, 0), (2, 2, 0), (0, 2, 0)]))  # the last edge clashes both ways
    def test_agrees_with_the_edge_loop(self, case):
        n, labels, edges = case
        inputs = [edges]
        if all(abs(x) < 2**63 for e in edges for x in e):
            inputs.append(np.array(edges, dtype=np.int64).reshape(-1, 3))
        try:
            expected = digraph_by_edge_loop(n, labels, edges)
        except ValueError as exc:
            for given_edges in inputs:
                with pytest.raises(ValueError) as got:
                    LabeledDigraph(n, labels, given_edges)
                assert str(got.value) == str(exc)
            return
        for given_edges in inputs:
            g = LabeledDigraph(n, labels, given_edges)
            assert (list(g.edges()), g.edge_count) == expected


class TestDistance:
    def test_self_distance_zero(self):
        g = three_cycle()
        for v in range(3):
            assert distance(g, v, v) == 0

    def test_directed_cycle(self):
        g = three_cycle()
        assert distance(g, 0, 2) == 2
        assert distance(g, 2, 0) == 1

    def test_unreachable_is_infinite(self):
        g = LabeledDigraph(2, 1, [])
        assert distance(g, 0, 1) == math.inf

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            distance(three_cycle(), 0, 7)


class TestDistances:
    def test_bfs_order_and_depths(self):
        # labels e, -e, identity: from 0, the first layer is 1 then 5
        pairs = list(distances(quotient_graph(Z1, 6), 0, 2))
        assert pairs == [(0, 0), (1, 1), (5, 1), (2, 2), (4, 2)]

    def test_lazy(self):
        walk = distances(quotient_graph(Z1, 6), 0)
        assert next(walk) == (0, 0)
        assert next(walk) == (1, 1)

    def test_bad_arguments_raise_at_the_call(self):
        with pytest.raises(ValueError):
            distances(three_cycle(), 3)
        with pytest.raises(ValueError):
            distances(three_cycle(), 0, -1)


class TestNeighborhood:
    def test_radius_zero(self):
        assert neighborhood(three_cycle(), 1, 0) == (1,)

    def test_c6_two_steps(self):
        g = quotient_graph(Z1, 6)
        assert neighborhood(g, 0, 2) == (0, 1, 2, 4, 5)

    def test_saturation(self):
        g = three_cycle()
        assert neighborhood(g, 0, 10) == (0, 1, 2)


class TestBallIsomorphism:
    def test_ball_onto_itself(self):
        ball = cayley_ball(Z1, 2)
        f = ball_isomorphism(ball.graph, 0, ball)
        assert f == tuple(range(ball.size))

    def test_c6_at_every_vertex(self):
        ball = cayley_ball(Z1, 2)
        g = quotient_graph(Z1, 6)
        for v in range(6):
            f = ball_isomorphism(g, v, ball)
            assert f is not None
            # elements are ordered 0, -1, 1, -2, 2; images are v + element mod 6
            assert f == tuple((v + e[0]) % 6 for e in ball.elements)

    def test_c5_wrap_edge_fails(self):
        ball = cayley_ball(Z1, 2)
        g = quotient_graph(Z1, 5)
        for v in range(5):
            assert ball_isomorphism(g, v, ball) is None

    def test_restriction_to_smaller_radius(self):
        # success at radius r restricts to success at every smaller radius,
        # and the smaller map is a prefix of the larger one (smaller balls
        # are prefixes of larger balls)
        g = quotient_graph(Z1, 8)
        full = ball_isomorphism(g, 0, cayley_ball(Z1, 3))
        assert full is not None
        for r in (2, 1, 0):
            ball = cayley_ball(Z1, r)
            f = ball_isomorphism(g, 0, ball)
            assert f == full[: ball.size]

    def test_map_is_deterministic(self):
        g = quotient_graph(Z1, 8)
        ball = cayley_ball(Z1, 3)
        first = ball_isomorphism(g, 2, ball)
        for _ in range(3):
            assert ball_isomorphism(g, 2, ball) == first

    def test_image_size_matches_neighborhood(self):
        g = quotient_graph(Z1, 9)
        ball = cayley_ball(Z1, 2)
        f = ball_isomorphism(g, 4, ball)
        assert f is not None
        assert set(f) == set(neighborhood(g, 4, 2))
        assert len(set(f)) == ball.size

    def test_alphabet_mismatch_raises(self):
        ball = cayley_ball(Z1, 1)
        g = LabeledDigraph(3, 1, [(0, 1, 0)])
        with pytest.raises(ValueError):
            ball_isomorphism(g, 0, ball)

    def test_missing_edge_fails(self):
        # a bare path has no self-loops, so the identity label walk fails
        g = LabeledDigraph(3, 3, [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 0, 1)])
        ball = cayley_ball(Z1, 1)
        assert ball_isomorphism(g, 1, ball) is None


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = quotient_graph(Z1, 6)
        path = tmp_path / "c6.graph"
        write_graph_file(path, g)
        h = read_graph_file(path)
        assert h == g

    @pytest.mark.parametrize("name", ["z2_torus", "s5_cayley"])
    def test_round_trip_keeps_out_table(self, tmp_path, name):
        if name == "z2_torus":
            graph = quotient_graph(FreeAbelian(2), 5)
        else:
            graph = quotient_graph(symmetric_group_5())
        path = tmp_path / f"{name}.graph"
        write_graph_file(path, graph)
        out = read_graph_file(path).out
        assert out.dtype == np.int64 and out.shape == graph.out.shape
        assert np.array_equal(out, graph.out)

    def test_write_is_deterministic(self, tmp_path):
        g = quotient_graph(Z1, 6)
        p1, p2 = tmp_path / "a.graph", tmp_path / "b.graph"
        write_graph_file(p1, g)
        write_graph_file(p2, g)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("not a header\n")
        with pytest.raises(ParseError):
            read_graph_file(bad)
        bad.write_text("digraph 2 1\n0 1\n")
        with pytest.raises(ParseError):
            read_graph_file(bad)
        bad.write_text("digraph 2 1\n0 1 0\n0 1 0\n1 0 0\n")
        # duplicate identical line is tolerated
        assert read_graph_file(bad).edge_count == 2

    def test_vertex_limit_checked_before_allocation(self, tmp_path):
        path = tmp_path / "huge.graph"
        path.write_text("digraph 100000000000 3\n")
        with pytest.raises(ResourceLimitError, match="100000000000 vertices exceeds limit 10000"):
            read_graph_file(path)
        write_graph_file(path, quotient_graph(Z1, 12))
        with pytest.raises(ResourceLimitError):
            read_graph_file(path, max_vertices=11)
        assert read_graph_file(path, max_vertices=12).vertex_count == 12

    def test_nondeterministic_graph_rejected(self, tmp_path):
        bad = tmp_path / "nondet.graph"
        bad.write_text("digraph 3 1\n0 1 0\n0 2 0\n")
        with pytest.raises(ParseError):
            read_graph_file(bad)


def _labeled_nx(graph, nodes=None):
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.vertex_count) if nodes is None else nodes)
    g.add_edges_from(
        (s, d, {"label": label})
        for s, d, label in graph.edges()
        if nodes is None or (s in nodes and d in nodes)
    )
    return g


def _oracle_isomorphic(graph, v, ball) -> bool:
    """Rooted labeled isomorphism of N_r(v) with the ball, decided by networkx."""
    near = set(nx.single_source_shortest_path_length(_labeled_nx(graph), v, cutoff=ball.radius))
    if len(near) != ball.size:
        return False
    local = _labeled_nx(graph, near)
    nx.set_node_attributes(local, {u: u == v for u in near}, "root")
    model = _labeled_nx(ball.graph)
    nx.set_node_attributes(model, {i: i == 0 for i in range(ball.size)}, "root")
    return nx.is_isomorphic(
        local,
        model,
        node_match=lambda a, b: a["root"] == b["root"],
        edge_match=nx.algorithms.isomorphism.categorical_multiedge_match("label", None),
    )


def _perturbed(draw, group, graph):
    """The graph with some same-label targets swapped and some edges deleted."""
    edges = list(graph.edges())
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, len(edges) - 1))
        (s1, d1, l1), (s2, d2, l2) = edges[i], edges[j]
        if l1 == l2:  # swapping targets keeps every label a partial injection
            edges[i], edges[j] = (s1, d2, l1), (s2, d1, l2)
    dropped = draw(st.sets(st.integers(0, len(edges) - 1), max_size=3))
    kept = [e for i, e in enumerate(edges) if i not in dropped]
    return group, LabeledDigraph(graph.vertex_count, graph.num_labels, kept)


@st.composite
def perturbed_tori(draw):
    """A torus of Z^1 or Z^2 with some edges deleted and some same-label targets swapped."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(2, 9 if k == 1 else 5))
    group = FreeAbelian(k)
    return _perturbed(draw, group, quotient_graph(group, n))


S5 = symmetric_group_5()


@st.composite
def perturbed_finite_cayley_graphs(draw):
    """The Cayley graph of S5 or of a product of two cyclic groups, perturbed like the tori.

    Balls of the small products saturate: at large radii a ball is the
    whole group and has no boundary, so every extra edge is a wrong one.
    """
    if draw(st.booleans()):
        group = S5
    else:
        group = direct_product_table(cyclic_group(draw(st.integers(2, 5))), cyclic_group(draw(st.integers(2, 5))))
    return _perturbed(draw, group, quotient_graph(group))


class TestBallIsomorphismOracle:
    @settings(max_examples=40, deadline=None)
    @given(perturbed_tori(), st.integers(0, 3))
    def test_agrees_with_networkx(self, case, r):
        group, graph = case
        ball = cayley_ball(group, r)
        charts, ok = ball_charts(graph, range(graph.vertex_count), ball)
        for v in range(graph.vertex_count):
            f = ball_isomorphism(graph, v, ball)
            assert (f is not None) == _oracle_isomorphic(graph, v, ball), v
            assert bool(ok[v]) == (f is not None), v
            if f is not None:
                assert tuple(charts[v].tolist()) == f, v
                # onto N_r(v) although no neighborhood is computed
                assert set(f) == set(neighborhood(graph, v, r))


    @settings(max_examples=30, deadline=None)
    @given(perturbed_finite_cayley_graphs(), st.integers(0, 6), st.data())
    def test_finite_cayley_graphs_agree_with_networkx(self, case, r, data):
        group, graph = case
        ball = cayley_ball(group, r)
        # every vertex against ball_isomorphism, a sample against networkx
        ok = assert_charts_match(graph, range(graph.vertex_count), ball)
        sample = data.draw(st.lists(st.integers(0, graph.vertex_count - 1), min_size=1, max_size=6))
        for v in sample:
            assert bool(ok[v]) == _oracle_isomorphic(graph, v, ball), v


def assert_charts_match(graph, vertices, ball):
    """ball_charts against ball_isomorphism, row for row and flag for flag."""
    charts, ok = ball_charts(graph, vertices, ball)
    assert charts.shape == (len(vertices), ball.size) and ok.shape == (len(vertices),)
    for k, v in enumerate(vertices):
        f = ball_isomorphism(graph, v, ball)
        assert bool(ok[k]) == (f is not None), v
        if f is not None:
            assert tuple(charts[k].tolist()) == f, v
    return ok


class TestBallCharts:
    def test_s3_cayley_graph(self):
        group = read_finite_group_file(Path(__file__).parent / "data" / "golden" / "s3.table")
        graph = quotient_graph(group)
        for r in range(4):
            assert assert_charts_match(graph, range(group.size), cayley_ball(group, r)).all()

    def test_open_path_charts_only_the_interior(self):
        # the 12-cycle without its wrap-around edges between 11 and 0
        graph = LabeledDigraph(12, 3, [e for e in quotient_graph(Z1, 12).edges() if abs(e[0] - e[1]) <= 1])
        r = 2
        ok = assert_charts_match(graph, range(12), cayley_ball(Z1, r))
        assert list(ok) == [r <= v < 12 - r for v in range(12)]

    def test_vertices_in_any_order(self):
        graph = quotient_graph(FreeAbelian(2), 4)
        assert assert_charts_match(graph, [9, 0, 15, 9], cayley_ball(FreeAbelian(2), 1)).all()

    def test_empty_vertex_list(self):
        ball = cayley_ball(Z1, 2)
        charts, ok = ball_charts(quotient_graph(Z1, 6), [], ball)
        assert charts.shape == (0, ball.size) and charts.dtype == np.int64
        assert ok.shape == (0,)

    def test_radius_zero(self):
        # Z^1 carries an identity generator, so the one-point ball has a self-loop
        charts, ok = ball_charts(quotient_graph(Z1, 5), range(5), cayley_ball(Z1, 0))
        assert ok.all() and charts.tolist() == [[v] for v in range(5)]
        # a self-loop on a label the one-point ball lacks is an extra edge
        c3 = cyclic_group(3)
        graph = LabeledDigraph(3, 2, [(0, 0, 0), (1, 2, 0), (2, 1, 1)])
        ok = assert_charts_match(graph, range(3), cayley_ball(c3, 0))
        assert list(ok) == [False, True, True]

    def test_injectivity_on_a_rooted_star(self):
        # On Cayley balls, reverse edges already catch a repeated vertex; on
        # this hand-made two-label star only the injectivity check does.
        star = LabeledDigraph(3, 2, [(0, 1, 0), (0, 2, 1)])
        tree = {"parent": np.array([0, 0, 0]), "via": np.array([0, 0, 1]), "layers": np.array([0, 1, 3])}
        ball = CayleyBall(1, (0, 1, 2), {0: 0, 1: 1, 2: 2}, star, **tree)
        merged = LabeledDigraph(2, 2, [(0, 1, 0), (0, 1, 1)])  # both leaves land on 1
        assert not assert_charts_match(merged, [0, 1], ball).any()

    def test_walk_marks_missing_edges(self):
        # an open path 0 - 1 - 2 with Z^1 labels: +1, -1, identity self-loops
        path = LabeledDigraph(3, 3, [(v, v, 2) for v in range(3)] + [(0, 1, 0), (1, 2, 0), (1, 0, 1), (2, 1, 1)])
        # ball order (0,), (-1,), (1,)
        assert label_walk(path, range(3), cayley_ball(Z1, 1)).tolist() == [[0, -1, 1], [1, 0, 2], [2, 1, -1]]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ball_charts(LabeledDigraph(3, 1, [(0, 1, 0)]), [0], cayley_ball(Z1, 1))
        with pytest.raises(ValueError):
            ball_charts(quotient_graph(Z1, 6), [0, 6], cayley_ball(Z1, 1))
