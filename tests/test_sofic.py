import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import ball_isomorphism, cyclic_group, direct_product_table, quotient_table_by_loop, symmetric_group_5
from soficrank.digraph import LabeledDigraph
from soficrank.errors import (
    AlphabetMismatch,
    ApproximationTooCoarse,
    BallMismatch,
    CardinalityViolation,
    ResourceLimitError,
)
from soficrank.groups import FreeAbelian, cayley_ball
from soficrank.sofic import (
    finite_group_approximation,
    quotient_approximation,
    quotient_graph,
    torus_approximation,
    verify_approximation,
)

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)


class TestVerify:
    def test_finite_cayley_graph_fully_good(self):
        G = cyclic_group(5)
        graph = quotient_graph(G)
        approx = verify_approximation(graph, range(5), Fraction(1, 100), 3, G)
        assert approx.good_vertices.tolist() == [0, 1, 2, 3, 4]

    def test_c6_verifies_at_radius_two(self):
        approx = verify_approximation(
            quotient_graph(Z1, 6), range(6), Fraction(1, 10), 2, Z1
        )
        assert approx.vertex_count == 6

    def test_c5_fails_with_ball_mismatch(self):
        with pytest.raises(BallMismatch) as err:
            verify_approximation(quotient_graph(Z1, 5), range(5), Fraction(1, 10), 2, Z1)
        assert err.value.vertex == 0  # lowest failing vertex

    def test_several_failures_name_the_lowest(self):
        edges = [e for e in quotient_graph(Z1, 12).edges() if e[:2] not in {(2, 3), (7, 8)}]
        graph = LabeledDigraph(12, 3, edges)
        ball = cayley_ball(Z1, 1)
        assert [v for v in range(12) if ball_isomorphism(graph, v, ball) is None] == [2, 3, 7, 8]
        for good, lowest in ((range(12), 2), ([11, 3, 0, 8, 9, 7, 10], 3), ([9, 8, 0, 7, 10, 11], 7)):
            with pytest.raises(BallMismatch) as err:
                verify_approximation(graph, good, Fraction(1, 2), 1, Z1)
            assert err.value.vertex == lowest

    def test_charts_are_read_only_rows_of_good_vertices(self):
        graph = quotient_graph(Z1, 8)
        approx = verify_approximation(graph, [6, 1, 3, 4, 5], Fraction(1, 2), 2, Z1)
        assert approx.charts.shape == (5, approx.ball.size)
        assert not approx.charts.flags.writeable
        good = approx.good_vertices
        assert good.dtype == np.int64 and not good.flags.writeable and good.tolist() == [1, 3, 4, 5, 6]
        for row, v in zip(approx.charts.tolist(), good.tolist()):
            assert tuple(row) == ball_isomorphism(graph, v, approx.ball)

    def test_out_of_range_names_the_first_bad_vertex(self):
        # unsorted and repeated good lists are read as sets, in ascending order
        graph = quotient_graph(Z1, 5)
        for good, bad in (([-3, 2, 7, 9], -3), ([0, 9, 7, 7], 7)):
            with pytest.raises(ValueError, match=f"^good vertex {bad} out of range$"):
                verify_approximation(graph, good, Fraction(1, 2), 1, Z1)

    def test_non_integer_good_vertices_are_refused(self):
        # never rounded or parsed: the message names the first entry, in the order given
        graph = quotient_graph(Z1, 8)
        for good, bad in (([0.5, 1.9, *range(2, 8)], 0.5), ([*range(8), "3"], "3"), (np.arange(8.0), np.float64(0))):
            with pytest.raises(ValueError, match=rf"^good vertex {re.escape(repr(bad))} is not an integer$"):
                verify_approximation(graph, good, Fraction(1, 2), 1, Z1)
        with pytest.raises(ValueError, match=rf"^good vertex {2**70} out of range$"):
            verify_approximation(graph, [2**70, *range(8)], Fraction(1, 2), 1, Z1)
        for good in (np.arange(8, dtype=np.int32), [np.uint8(v) for v in range(8)]):
            approx = verify_approximation(graph, good, Fraction(1, 2), 1, Z1)
            assert approx.good_vertices.dtype == np.int64 and approx.good_vertices.tolist() == list(range(8))

    def test_cardinality_violation(self):
        with pytest.raises(CardinalityViolation):
            verify_approximation(quotient_graph(Z1, 8), [0, 1], Fraction(1, 10), 1, Z1)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            verify_approximation(quotient_graph(Z1, 8), range(8), Fraction(1, 10), 1, Z2)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            verify_approximation(quotient_graph(Z1, 8), range(8), Fraction(3, 2), 1, Z1)

    def test_partial_good_set_passes_with_loose_epsilon(self):
        approx = verify_approximation(
            quotient_graph(Z1, 8), range(4), Fraction(1, 2), 2, Z1
        )
        assert approx.good_vertices.tolist() == [0, 1, 2, 3]


class TestTorusApproximation:
    def test_c8_radius_three(self):
        approx = torus_approximation(Z1, 8, 3)
        assert approx.vertex_count == 8
        assert approx.good_vertices.tolist() == list(range(8))

    def test_two_dimensional(self):
        approx = torus_approximation(Z2, 6, 2)
        assert approx.vertex_count == 36

    def test_side_too_small(self):
        # the owner of the check raises the text the CLI prints
        with pytest.raises(ApproximationTooCoarse, match=r"^torus side 7 cannot support verification radius 3; need n >= 8$"):
            torus_approximation(Z1, 7, 3)  # need 2*3 + 2 = 8

    def test_cached_map_is_translation(self):
        approx = torus_approximation(Z1, 10, 3)
        ball = approx.ball
        for v in (0, 3, 7):
            f = tuple(approx.charts[np.searchsorted(approx.good_vertices, v)].tolist())
            assert f == tuple((v + g[0]) % 10 for g in ball.elements)

    def test_cached_map_translation_2d(self):
        n = 6
        approx = torus_approximation(Z2, n, 1)
        ball = approx.ball
        for v in (0, 7, 35):
            coords = (v % n, (v // n) % n)
            f = tuple(approx.charts[np.searchsorted(approx.good_vertices, v)].tolist())
            expected = tuple(
                ((coords[0] + g[0]) % n) + n * ((coords[1] + g[1]) % n)
                for g in ball.elements
            )
            assert f == expected

    def test_monotone_in_radius(self):
        # the same graph and good set re-verify at every smaller radius
        approx = torus_approximation(Z1, 8, 3)
        for smaller in (2, 1, 0):
            again = verify_approximation(
                approx.graph, approx.good_vertices, approx.epsilon, smaller, approx.group
            )
            assert again.good_vertices.tolist() == approx.good_vertices.tolist()


class TestFiniteGroupApproximation:
    def test_cyclic_three_any_radius(self):
        G = cyclic_group(3)
        approx = finite_group_approximation(G, 5)
        assert approx.vertex_count == 3
        assert approx.good_vertices.tolist() == [0, 1, 2]

    def test_trivial_group(self):
        G = cyclic_group(1)
        approx = finite_group_approximation(G, 0)
        assert approx.vertex_count == 1

    def test_order_two(self):
        G = cyclic_group(2)
        approx = finite_group_approximation(G, 1)
        assert approx.vertex_count == 2


class TestBuilderVerifierAgreement:
    def test_rebuilt_approximations_verify(self):
        for k, n, r in [(1, 8, 3), (1, 12, 2), (2, 6, 2)]:
            approx = torus_approximation(FreeAbelian(k), n, r)
            again = verify_approximation(
                approx.graph,
                approx.good_vertices,
                approx.epsilon,
                approx.radius,
                approx.group,
            )
            assert again.good_vertices.tolist() == approx.good_vertices.tolist()
            assert np.array_equal(again.charts, approx.charts)


class TestQuotient:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("side", range(1, 8))
    def test_torus_table_matches_loop(self, rank, side):
        group = FreeAbelian(rank)
        assert np.array_equal(quotient_graph(group, side).out, quotient_table_by_loop(group, side))

    @pytest.mark.parametrize(
        "group", [symmetric_group_5(), direct_product_table(cyclic_group(4), cyclic_group(6))], ids=["S5", "C4xC6"]
    )
    def test_finite_table_matches_loop(self, group):
        assert np.array_equal(quotient_graph(group).out, quotient_table_by_loop(group))

    def test_side_is_recorded(self):
        torus = quotient_approximation(Z1, 3)  # default side 2r + 2
        assert (torus.side, torus.vertex_count) == (8, 8)
        assert quotient_approximation(Z2, 1, 5).side == 5
        finite = quotient_approximation(cyclic_group(5), 2)
        assert (finite.side, finite.vertex_count) == (None, 5)
        handed = verify_approximation(quotient_graph(Z1, 8), range(8), Fraction(1, 9), 3, Z1)
        assert handed.side is None

    @pytest.mark.parametrize(
        "group, r, side, max_vertices, error, message",
        [
            (Z1, 3, 7, 10**4, ApproximationTooCoarse, r"^torus side 7 cannot support verification radius 3; need n >= 8$"),
            (Z2, 1, 101, 10**4, ResourceLimitError, r"^torus with 10201 vertices exceeds limit 10000$"),
            (cyclic_group(5), 1, 4, 10**4, ValueError, r"^a torus side applies only to Z\^k, not to finite:cyclic-5$"),
            (cyclic_group(5), 1, None, 4, ResourceLimitError, r"^Cayley graph with 5 vertices exceeds limit 4$"),
        ],
    )
    def test_model_errors_reach_the_builder(self, group, r, side, max_vertices, error, message):
        with pytest.raises(error, match=message):
            quotient_approximation(group, r, side, max_vertices=max_vertices)
