import math
import re
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import (
    ball_isomorphism,
    cyclic_group,
    digraph_by_edge_loop,
    direct_product_table,
    symmetric_group_5,
    write_graph_file,
)
from soficrank import digraph
from soficrank.digraph import (
    LabeledDigraph,
    _cycle_relations,
    _walk,
    _walk_dtype,
    ball_charts,
    distance,
    distances,
    label_walk,
    neighborhood,
    read_graph_file,
    table_edges,
)
from soficrank.errors import ParseError, ResourceLimitError
from soficrank.groups import (
    CayleyBall,
    FreeAbelian,
    cayley_ball,
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


@st.composite
def out_tables(draw):
    """(|V|, |B|) out-tables with heads in [-1, |V|]: columns repeat heads, and |V| is one past the end."""
    n, labels = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.integers(-1, n), min_size=n * labels, max_size=n * labels))
    return np.array(cells, dtype=np.int64).reshape(n, labels)


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

    @settings(max_examples=150, deadline=None)
    @given(out_tables())
    def test_from_table_agrees_with_the_edge_list(self, out):
        n, labels = out.shape
        try:
            expected = LabeledDigraph(n, labels, table_edges(out))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                LabeledDigraph.from_table(out)
            assert str(got.value) == str(exc)
            return
        g = LabeledDigraph.from_table(out)
        assert g == expected and g.edge_count == expected.edge_count
        assert (g.vertex_count, g.num_labels) == (n, labels) and not g.out.flags.writeable


class TestFromTable:
    def test_copies_the_table(self):
        out = np.array([[1, -1], [0, 1]])
        g = LabeledDigraph.from_table(out)
        out[0, 0] = -1
        assert g.out.tolist() == [[1, -1], [0, 1]] and g.edge_count == 3

    def test_entry_below_minus_one(self):
        with pytest.raises(ValueError, match="vertices or -1"):
            LabeledDigraph.from_table([[0, -2]])

    def test_first_bad_edge_in_table_order(self):
        # (1, 0, 0) repeats the head of (0, 0, 0) before (2, 3, 0) leaves the range
        with pytest.raises(ValueError, match="vertex 0 has two incoming edges labeled 0"):
            LabeledDigraph.from_table([[0], [0], [3]])


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

    def test_radius_and_vertex_are_read_as_integers(self):
        g = quotient_graph(Z1, 6)
        for radius in (1.5, "2"):
            with pytest.raises(ValueError, match=rf"^radius {re.escape(repr(radius))} is not an integer$"):
                neighborhood(g, 0, radius)
        # a bool is an integer, as ball_charts reads it
        assert neighborhood(g, True, 1) == neighborhood(g, 1, 1) == (0, 1, 2)
        assert list(distances(g, np.int32(0), np.uint8(1))) == [(0, 0), (1, 1), (5, 1)]


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
    @pytest.mark.parametrize(
        "group, r",
        [(Z1, 2), (FreeAbelian(2), 3), (FreeAbelian(3), 2), (symmetric_group_5(), 2)],
        ids=["Z1-r2", "Z2-r3", "Z3-r2", "S5-r2"],
    )
    def test_ball_onto_itself(self, group, r):
        # at the root, many elements lacking a label have no edge on it: their -1 heads must never clash
        ball = cayley_ball(group, r)
        f = digraph.ball_isomorphism(ball.graph, 0, ball)
        assert f == tuple(range(ball.size))
        charts, ok = ball_charts(ball.graph, [0], ball)
        assert ok.tolist() == [True] and charts[0].tolist() == list(range(ball.size))

    def test_c6_at_every_vertex(self):
        ball = cayley_ball(Z1, 2)
        g = quotient_graph(Z1, 6)
        for v in range(6):
            f = digraph.ball_isomorphism(g, v, ball)
            assert f is not None
            # elements are ordered 0, -1, 1, -2, 2; images are v + element mod 6
            assert f == tuple((v + e[0]) % 6 for e in ball.elements)

    def test_c5_wrap_edge_fails(self):
        ball = cayley_ball(Z1, 2)
        g = quotient_graph(Z1, 5)
        for v in range(5):
            assert digraph.ball_isomorphism(g, v, ball) is None

    def test_restriction_to_smaller_radius(self):
        # success at radius r restricts to success at every smaller radius,
        # and the smaller map is a prefix of the larger one (smaller balls
        # are prefixes of larger balls)
        g = quotient_graph(Z1, 8)
        full = digraph.ball_isomorphism(g, 0, cayley_ball(Z1, 3))
        assert full is not None
        for r in (2, 1, 0):
            ball = cayley_ball(Z1, r)
            f = digraph.ball_isomorphism(g, 0, ball)
            assert f == full[: ball.size]

    def test_map_is_deterministic(self):
        g = quotient_graph(Z1, 8)
        ball = cayley_ball(Z1, 3)
        first = digraph.ball_isomorphism(g, 2, ball)
        for _ in range(3):
            assert digraph.ball_isomorphism(g, 2, ball) == first

    def test_image_size_matches_neighborhood(self):
        g = quotient_graph(Z1, 9)
        ball = cayley_ball(Z1, 2)
        f = digraph.ball_isomorphism(g, 4, ball)
        assert f is not None
        assert set(f) == set(neighborhood(g, 4, 2))
        assert len(set(f)) == ball.size

    def test_alphabet_mismatch_raises(self):
        ball = cayley_ball(Z1, 1)
        g = LabeledDigraph(3, 1, [(0, 1, 0)])
        with pytest.raises(ValueError):
            digraph.ball_isomorphism(g, 0, ball)

    def test_vertex_checked_before_alphabet(self):
        ball = cayley_ball(Z1, 1)
        g = LabeledDigraph(3, 1, [(0, 1, 0)])
        for walk in (digraph.ball_isomorphism, ball_isomorphism):
            with pytest.raises(ValueError, match=r"vertex 3 out of range \[0, 3\)"):
                walk(g, 3, ball)

    def test_missing_edge_fails(self):
        # a bare path has no self-loops, so the identity label walk fails
        g = LabeledDigraph(3, 3, [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 0, 1)])
        ball = cayley_ball(Z1, 1)
        assert digraph.ball_isomorphism(g, 1, ball) is None


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
        with pytest.raises(ParseError, match="^cannot read "):
            read_graph_file(tmp_path / "missing.graph")

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
def perturbed_tori(draw, max_sides=((1, 9), (2, 5))):
    """A torus of Z^k with some edges deleted and some same-label targets swapped; max_sides pairs k with its largest side."""
    k, largest = draw(st.sampled_from(max_sides))
    n = draw(st.integers(2, largest))
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
            assert digraph.ball_isomorphism(graph, v, ball) == f, v
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
        # every vertex against the oracle walk, a sample against networkx
        ok = assert_charts_match(graph, range(graph.vertex_count), ball)
        sample = data.draw(st.lists(st.integers(0, graph.vertex_count - 1), min_size=1, max_size=6))
        for v in sample:
            assert bool(ok[v]) == _oracle_isomorphic(graph, v, ball), v

    @settings(max_examples=20, deadline=None)
    @given(perturbed_tori(max_sides=((2, 10), (3, 6))), st.integers(0, 4), st.data())
    def test_perturbed_squares(self, case, r, data):
        # squares, back edges and self-loops fail where edges were swapped or deleted
        group, graph = case
        assert_charts_match(graph, data.draw(vertex_lists(graph.vertex_count)), cayley_ball(group, r))

    @settings(max_examples=25, deadline=None)
    @given(perturbed_finite_cayley_graphs(), st.integers(0, 8), st.data())
    def test_finite_cayley_graphs_with_direct_edges(self, case, r, data):
        # finite balls keep edges that no relation checks, compared chart by chart
        group, graph = case
        assert_charts_match(graph, data.draw(vertex_lists(graph.vertex_count)), cayley_ball(group, r))


def vertex_lists(n):
    """All n vertices in order, or a short list with repeats, possibly empty."""
    return st.one_of(st.just(list(range(n))), st.lists(st.integers(0, n - 1), max_size=6))


def assert_charts_match(graph, vertices, ball):
    """ball_charts and digraph.ball_isomorphism against the oracle walk, row for row and flag for flag."""
    charts, ok = ball_charts(graph, vertices, ball)
    assert charts.shape == (len(vertices), ball.size) and ok.shape == (len(vertices),)
    for k, v in enumerate(vertices):
        f = ball_isomorphism(graph, v, ball)
        assert digraph.ball_isomorphism(graph, v, ball) == f, v
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
        for graph in (quotient_graph(Z1, 6), LabeledDigraph(0, 3, [])):
            charts, ok = ball_charts(graph, [], ball)
            assert charts.shape == (0, ball.size) and charts.dtype == _walk_dtype(graph.vertex_count, 3)
            assert ok.shape == (0,) and ok.dtype == bool

    @pytest.mark.parametrize(
        "walk",
        [
            ball_charts,
            label_walk,
            pytest.param(lambda graph, vertices, ball: [distances(graph, v) for v in vertices], id="distances"),
            pytest.param(lambda graph, vertices, ball: [distance(graph, 0, v) for v in vertices], id="distance"),
            pytest.param(lambda graph, vertices, ball: [neighborhood(graph, v, 1) for v in vertices], id="neighborhood"),
        ],
    )
    def test_non_integer_vertices_are_refused(self, walk):
        # never rounded or parsed: the message names the first entry, in the order given
        graph, ball = quotient_graph(Z1, 5), cayley_ball(Z1, 1)
        for vertices, bad in (([1.7, 2.2], 1.7), ([2, "3", 0.5], "3"), (np.array([1.0]), np.float64(1))):
            with pytest.raises(ValueError, match=rf"^vertex {re.escape(repr(bad))} is not an integer$"):
                walk(graph, vertices, ball)
        with pytest.raises(ValueError, match=rf"^vertex {2**70} out of range \[0, 5\)$"):
            walk(graph, [1, 2**70, -1], ball)

    def test_numpy_integers_of_any_width(self):
        graph, ball = quotient_graph(Z1, 5), cayley_ball(Z1, 1)
        want = label_walk(graph, [3, 1], ball)
        for vertices in ([np.int32(3), np.uint8(1)], np.array([3, 1], dtype=np.int32), np.array([3, 1], dtype=np.uint64)):
            assert np.array_equal(label_walk(graph, vertices, ball), want)
            charts, ok = ball_charts(graph, vertices, ball)
            assert ok.all() and np.array_equal(charts, want)

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
        ball = CayleyBall(1, (0, 1, 2), star, **tree)
        merged = LabeledDigraph(2, 2, [(0, 1, 0), (0, 1, 1)])  # both leaves land on 1
        assert not assert_charts_match(merged, [0, 1], ball).any()

    def test_missing_label_looping_back_to_its_image(self):
        # the radius-1 Z^2 ball as a graph; its element (1, 0) at 4 has no +y edge (label 2), in or out
        ball = cayley_ball(FreeAbelian(2), 1)
        plus = list(ball.graph.edges())
        assert assert_charts_match(LabeledDigraph(5, 5, plus), [0], ball).all()
        assert not assert_charts_match(LabeledDigraph(5, 5, plus + [(4, 4, 2)]), [0], ball).any()

    def test_missing_label_onto_another_boundary_image(self):
        # the open path 0 - 1 - 2 with Z^1 labels (+1, -1, identity), then a +1 edge from 2 onto 0
        path = [(v, v, 2) for v in range(3)] + [(0, 1, 0), (1, 2, 0), (1, 0, 1), (2, 1, 1)]
        ball = cayley_ball(Z1, 1)
        # at 1 both ends' missing edges have head -1, a repeated key that is no clash
        assert list(assert_charts_match(LabeledDigraph(3, 3, path), range(3), ball)) == [False, True, False]
        # at 1 the +1 edge leaving the image of +1 lands on the image of -1
        assert not assert_charts_match(LabeledDigraph(3, 3, path + [(2, 0, 0)]), range(3), ball).any()

    def test_boundary_heads_meeting_outside_the_chart(self):
        # on the 4-cycle, the +1 edge from v+1 and the -1 edge from v-1 both end at v+2, outside the radius-1 chart
        cycle = [(v, v, 2) for v in range(4)] + [(v, (v + 1) % 4, 0) for v in range(4)]
        cycle += [(v, (v - 1) % 4, 1) for v in range(4)]
        assert assert_charts_match(LabeledDigraph(4, 3, cycle), range(4), cayley_ball(Z1, 1)).all()

    def test_missing_edge_whose_wrapped_reads_match(self):
        # a 5-cycle whose vertex 0 lacks its -1 edge: the walk from 0 reads the last row for the missing
        # image, where 4's +1 edge back to 0 satisfies the back edge, so only the -1 image rejects the chart
        cycle = [(v, v, 2) for v in range(5)] + [(v, (v + 1) % 5, 0) for v in range(5)]
        cycle += [(v, v - 1, 1) for v in range(1, 5)]
        ok = assert_charts_match(LabeledDigraph(5, 3, cycle), range(5), cayley_ball(Z1, 1))
        assert list(ok) == [False, True, True, True, False]

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
        with pytest.raises(ValueError):  # an empty vertex list is checked as well
            ball_charts(LabeledDigraph(3, 1, [(0, 1, 0)]), [], cayley_ball(Z1, 1))


def grid_ball():
    """The 3 x 3 directed grid, labels 0 (x + 1) and 1 (y + 1), as a hand-made ball rooted at (0, 0).

    Elements are ordered (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), (1,2),
    (2,1), (2,2), so (1,1) hangs from (0,1) and (2,1) from (1,1): the edge
    (2,0) -1-> (2,1) is a square whose parallel edge (1,0) -1-> (1,1) is
    itself a square, not a tree edge.
    """
    order = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2)]
    index = {p: i for i, p in enumerate(order)}
    edges = [
        (index[(x, y)], index[q], label)
        for x, y in order
        for label, q in enumerate([(x + 1, y), (x, y + 1)])
        if q in index
    ]
    tree = {
        "parent": np.array([0, 0, 0, 1, 1, 2, 3, 4, 6]),
        "via": np.array([0, 1, 0, 1, 0, 0, 0, 0, 0]),
        "layers": np.array([0, 1, 3, 6, 8, 9]),
    }
    return CayleyBall(4, tuple(order), LabeledDigraph(9, 2, edges), **tree)


def directed_torus(n):
    """(Z/nZ)^2 with only the +x (label 0) and +y (label 1) edges; vertex x + n*y."""
    return LabeledDigraph(
        n * n, 2, [(x + n * y, (x + 1) % n + n * y, 0) for x in range(n) for y in range(n)]
        + [(x + n * y, x + n * ((y + 1) % n), 1) for x in range(n) for y in range(n)]
    )


class TestCycleRelations:
    def test_square_on_a_square(self):
        (src, label, dst, anchor, relation), (kind, x, l) = _cycle_relations(grid_ball())
        assert sorted(zip(src.tolist(), label.tolist(), dst.tolist())) == [(2, 1, 4), (4, 1, 6), (5, 1, 7), (7, 1, 8)]
        assert (kind.tolist(), x.tolist(), l.tolist()) == ([2], [0], [1])
        assert sorted(anchor.tolist()) == [0, 1, 2, 4] and relation.tolist() == [0] * 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 7), st.data())
    def test_grid_ball_on_perturbed_directed_tori(self, n, data):
        _, graph = _perturbed(data.draw, None, directed_torus(n))
        assert_charts_match(graph, data.draw(vertex_lists(graph.vertex_count)), grid_ball())

    @pytest.mark.parametrize("vertices", [range(36), [0, 7, 7, 35]])
    def test_failing_parallel_edge(self, vertices):
        # swapping the +y heads of (1,0) and (4,3) breaks the parallel edge
        # at the charts rooted at (0,0) and (3,3), and the square above it
        edges = [e for e in directed_torus(6).edges() if not (e[2] == 1 and e[0] in (1, 22))]
        graph = LabeledDigraph(36, 2, edges + [(1, 28, 1), (22, 7, 1)])
        ok = assert_charts_match(graph, list(vertices), grid_ball())
        assert not ok[list(vertices).index(0)]

    def test_z2_radius_13_needs_no_chart_by_chart_edge(self):
        (src, _, _, _, relation), (kind, _, _) = _cycle_relations(cayley_ball(FreeAbelian(2), 13))
        assert src.size == 1353
        assert sorted(kind.tolist()) == [0] + [1] * 4 + [2] * 6

    def test_short_vertex_list_evaluates_relations_per_graph_vertex(self, monkeypatch):
        calls = []
        holds = digraph._relation_holds

        def counting(out, kind, x, l):
            calls.append((kind, x, l))
            return holds(out, kind, x, l)

        monkeypatch.setattr(digraph, "_relation_holds", counting)
        ball = cayley_ball(Z1, 3)
        _, (kind, _, _) = _cycle_relations(ball)
        graph = quotient_graph(Z1, 12)
        ball_charts(graph, [5], ball)
        assert len(calls) == np.count_nonzero(kind < 3) > 0
        assert_charts_match(graph, [5], ball)  # its alias check charts vertex 5 again

    def test_closures_and_chart_by_chart_comparison_agree(self):
        # a few vertices of a large torus gather their relations from the per-vertex flags
        group = FreeAbelian(2)
        edges = list(quotient_graph(group, 28).edges())
        assert edges[10][2] == edges[500][2] == 0
        edges[10], edges[500] = (edges[10][0], edges[500][1], 0), (edges[500][0], edges[10][1], 0)
        graph = LabeledDigraph(784, 5, edges)
        ball = cayley_ball(group, 3)
        for vertices in ([2, 2, 100], range(784)):
            assert_charts_match(graph, list(vertices), ball)


class TestWalkDtype:
    def test_boundary(self):
        # int16 exactly when max(|V||B|, 2|V| + 1) < 2^15, int32 when < 2^31; only the rule is consulted, no table is built
        assert _walk_dtype(6553, 5) is np.int16
        assert _walk_dtype(6554, 5) is np.int32
        assert _walk_dtype(16383, 1) is np.int16
        assert _walk_dtype(16384, 1) is np.int32
        assert _walk_dtype(2**30 - 1, 1) is np.int32
        assert _walk_dtype(2**30, 1) is np.int64
        assert _walk_dtype(2**30 - 1, 2) is np.int32
        assert _walk_dtype(2**30, 2) is np.int64
        assert _walk_dtype(715827882, 3) is np.int32
        assert _walk_dtype(715827883, 3) is np.int64

    def test_int32_walk_is_the_label_walk(self):
        graph, ball = quotient_graph(FreeAbelian(2), 7), cayley_ball(FreeAbelian(2), 4)
        walk = _walk(graph.out.astype(np.int32), np.arange(49), ball)
        assert walk.dtype == np.int32
        assert np.array_equal(walk.T, label_walk(graph, range(49), ball))

    def test_charts_take_the_walk_width(self):
        # side 81: |V||B| = 6561 * 5 = 32805, the first Z^2 torus past 2^15
        ball = cayley_ball(FreeAbelian(2), 3)
        for side, width in [(8, np.int16), (81, np.int32)]:
            graph = quotient_graph(FreeAbelian(2), side)
            charts, ok = ball_charts(graph, range(side**2), ball)
            assert charts.dtype == width and ok.all()
            assert np.array_equal(charts, label_walk(graph, range(side**2), ball))

    @settings(max_examples=40, deadline=None)
    @given(perturbed_tori(), st.integers(0, 3), st.data())
    def test_int16_charts_are_the_int32_charts(self, case, r, data):
        """Failing rows included, the int16 walk gives the rows and flags that an int32 one gives."""
        group, graph = case
        ball, vertices = cayley_ball(group, r), data.draw(vertex_lists(graph.vertex_count))
        narrow, narrow_ok = ball_charts(graph, vertices, ball)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(digraph, "_walk_dtype", lambda *_: np.int32)
            wide, wide_ok = ball_charts(graph, vertices, ball)
        assert narrow.dtype == np.int16 and wide.dtype == np.int32
        assert np.array_equal(narrow_ok, wide_ok) and np.array_equal(narrow, wide)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_blocks_chart_as_one(monkeypatch, rows):
    """Charting in blocks of a few vertices gives the rows and flags of a single block, failures included."""
    group = FreeAbelian(2)
    edges = list(quotient_graph(group, 6).edges())
    edges[10], edges[20] = (edges[10][0], edges[20][1], 0), (edges[20][0], edges[10][1], 0)
    graph, ball = LabeledDigraph(36, 5, edges), cayley_ball(group, 2)
    vertices = [*range(36), 4, 4]
    whole, whole_ok = ball_charts(graph, vertices, ball)
    monkeypatch.setattr(digraph, "_BLOCK_ENTRIES", rows * ball.size)
    charts, ok = ball_charts(graph, vertices, ball)
    assert not whole_ok.all() and whole_ok.any()
    assert np.array_equal(ok, whole_ok) and np.array_equal(charts[ok], whole[whole_ok])
    assert_charts_match(graph, vertices, ball)


def test_chart_memory_bound():
    """Charting the side-28 torus over the radius-13 Z^2 ball peaks below 2.5 times its charts."""
    group = FreeAbelian(2)
    graph, ball = quotient_graph(group, 28), cayley_ball(group, 13)
    tracemalloc.start()
    try:
        charts, ok = ball_charts(graph, range(784), ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and peak < 2.5 * charts.nbytes
