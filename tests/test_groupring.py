import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import (
    cyclic_group,
    equivariant_entry,
    kernel_radius_scan,
    laurent_det,
    restriction_by_products,
    symmetric_group_5,
)
from soficrank.corpus import random_invertible_pair
from soficrank import groupring
from soficrank.errors import InternalInconsistency
from soficrank.exactfield import FpMatrix, FpSparse, mat_mul, rank
from soficrank.groupring import (
    GroupRingKernel,
    check_right_inverse,
    compose,
    kernel_radius,
    kernel_search_top,
    restriction_matrix,
    support_data,
    transplant,
)
from soficrank.groups import FreeAbelian, cayley_ball, read_finite_group_file
from soficrank.limits import default_kernel_search_bound

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
S5 = symmetric_group_5()
S3 = read_finite_group_file(Path(__file__).parent / "data" / "golden" / "s3.table")


def scalar_kernel(group, p, terms):
    """d=1 kernel from {element: coefficient}."""
    return GroupRingKernel(group, 1, p, {g: FpMatrix([[c]], p) for g, c in terms.items()})


def one_plus_t():
    return scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})


def involution():
    eye = FpMatrix.identity(2, 2)
    off = FpMatrix([[0, 1], [0, 0]], 2)
    return GroupRingKernel(Z1, 2, 2, {(0,): eye, (1,): off})


class TestConstruction:
    def test_zero_blocks_dropped(self):
        k = GroupRingKernel(Z1, 2, 3, {(0,): FpMatrix(np.zeros((2, 2), dtype=np.int64), 3)})
        assert k.support == ()

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            GroupRingKernel(Z1, 2, 3, {(0,): FpMatrix.identity(3, 3)})

    def test_foreign_element_rejected(self):
        with pytest.raises(ValueError):
            GroupRingKernel(Z1, 1, 2, {(0, 0): FpMatrix([[1]], 2)})

    def test_support_radius(self):
        k = scalar_kernel(Z2, 2, {(0, 0): 1, (1, -1): 1})
        assert k.support_radius() == 2
        assert GroupRingKernel(Z1, 1, 2, {}).support_radius() == 0


class TestEquivariantEntry:
    def test_identity_kernel_diagonal(self):
        ident = GroupRingKernel.identity(Z1, 2, 3)
        assert equivariant_entry(ident, (4,), (4,)) == FpMatrix.identity(2, 3)
        assert not equivariant_entry(ident, (4,), (5,)).array.any()

    def test_shift_entry(self):
        t = scalar_kernel(Z1, 2, {(1,): 1})
        assert equivariant_entry(t, (5,), (4,)).array[0, 0] == 1
        assert not equivariant_entry(t, (5,), (5,)).array.any()

    def test_equivariance_law_sampled(self):
        rng = random.Random(7)
        k = scalar_kernel(Z1, 3, {(0,): 1, (1,): 2, (-1,): 1})
        for _ in range(50):
            g = (rng.randint(-4, 4),)
            g1 = (rng.randint(-4, 4),)
            g2 = (rng.randint(-4, 4),)
            lhs = equivariant_entry(k, Z1.multiply(Z1.inverse(g), g2), g1)
            rhs = equivariant_entry(k, g2, Z1.multiply(g, g1))
            assert lhs == rhs


class TestCompose:
    def test_identity_neutral(self):
        k = involution()
        ident = GroupRingKernel.identity(Z1, 2, 2)
        assert compose(k, ident) == k
        assert compose(ident, k) == k

    def test_one_plus_t_squared(self):
        sq = compose(one_plus_t(), one_plus_t())
        assert sq == scalar_kernel(Z1, 2, {(0,): 1, (2,): 1})

    def test_involution_squares_to_identity(self):
        assert compose(involution(), involution()) == GroupRingKernel.identity(Z1, 2, 2)

    def test_mismatched_parameters(self):
        with pytest.raises(ValueError):
            compose(one_plus_t(), scalar_kernel(Z1, 3, {(0,): 1}))


class TestIsIdentity:
    CASES = {
        "identity": {(0,): [[1, 0], [0, 1]]},
        "twice-identity": {(0,): [[2, 0], [0, 2]]},
        "projector": {(0,): [[1, 0], [0, 0]]},
        "swap": {(0,): [[0, 1], [1, 0]]},
        "identity-plus-corner": {(0,): [[1, 1], [0, 1]]},
        "shifted-identity": {(1,): [[1, 0], [0, 1]]},
        "identity-plus-shift": {(0,): [[1, 0], [0, 1]], (1,): [[1, 0], [0, 1]]},
        "zero": {},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_agrees_with_comparing_to_the_identity_kernel(self, name):
        k = GroupRingKernel(Z1, 2, 3, self.CASES[name])
        assert k.is_identity() == (k == GroupRingKernel.identity(Z1, 2, 3)) == (name == "identity")

    def test_huge_module_builds_no_identity(self):
        # a d x d identity at d = 10^9 would take 8 EiB; the zero kernel holds no block at all
        assert not GroupRingKernel(Z1, 10**9, 2, {}).is_identity()


class TestRightInverse:
    def test_identity_pair(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        assert check_right_inverse(ident, ident)

    def test_involution_self_inverse(self):
        assert check_right_inverse(involution(), involution())

    def test_one_plus_t_not_invertible(self):
        assert not check_right_inverse(one_plus_t(), one_plus_t())


class TestSupportData:
    def test_identity_pair_clamps_to_one(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        s, r1 = support_data(ident, ident)
        assert s == frozenset({(0,)})
        assert r1 == 1

    def test_z1_pair(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        psi = scalar_kernel(Z1, 2, {(0,): 1, (1,): 1})
        s, r1 = support_data(phi, psi)
        assert s == frozenset({(0,), (1,)})
        assert r1 == 2

    def test_z2_mixed(self):
        phi = scalar_kernel(Z2, 2, {(0, 0): 1, (1, 0): 1})
        psi = scalar_kernel(Z2, 2, {(0, 0): 1, (0, 1): 1})
        _, r1 = support_data(phi, psi)
        assert r1 == 2

    def test_psi_optional(self):
        phi = scalar_kernel(Z1, 2, {(0,): 1, (2,): 1})
        s, r1 = support_data(phi)
        assert s == frozenset({(0,), (2,)})
        assert r1 == 4


class TestRestrictionMatrix:
    def test_identity_kernel_same_radius(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        ball = cayley_ball(Z1, 2)
        m = restriction_matrix(ident, 2, 2)
        assert m.dense() == FpMatrix.identity(ball.size, 2)

    def test_identity_kernel_padded(self):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        m = restriction_matrix(ident, 1, 2)
        assert m.rows == 5 and m.cols == 3
        assert rank(m) == 3

    def test_one_plus_t_positions(self):
        m = restriction_matrix(one_plus_t(), 1, 2)
        # ball order: 0, -1, 1, -2, 2; ones at (g, g) and (g + 1, g)
        expected = np.zeros((5, 3), dtype=np.int64)
        order = [(0,), (-1,), (1,), (-2,), (2,)]
        pos = {g: i for i, g in enumerate(order)}
        for j, g in enumerate(order[:3]):
            expected[pos[g], j] = 1
            expected[pos[(g[0] + 1,)], j] = 1
        assert np.array_equal(m.dense().array, expected)

    def test_zero_kernel(self):
        z = GroupRingKernel(Z1, 2, 2, {})
        m = restriction_matrix(z, 1, 1)
        assert not m.dense().array.any()

    def test_codomain_missing_elements_is_inconsistent(self, monkeypatch):
        # A ball that claims a larger radius than its elements cover passes
        # the radius check; the missing row must still be caught.
        short = dataclasses.replace(cayley_ball(Z1, 1), radius=3)
        real = groupring.cayley_ball
        monkeypatch.setattr(
            groupring, "cayley_ball", lambda group, r, max_elements: short if r == 3 else real(group, r, max_elements)
        )
        with pytest.raises(InternalInconsistency, match=r"walked from -1 leaves the radius-3 codomain"):
            restriction_matrix(one_plus_t(), 1, 3)

    def test_codomain_too_small(self):
        with pytest.raises(ValueError):
            restriction_matrix(one_plus_t(), 2, 2)

    @given(st.data())
    @example(None)
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_products(self, data):
        """The walked restriction against the per-pair products, on Z^1, Z^2 and S5; None is the zero kernel on S5."""
        if data is None:
            c, dom, cod = GroupRingKernel(S5, 2, 3, {}), cayley_ball(S5, 1), cayley_ball(S5, 1)
        else:
            group = data.draw(st.sampled_from([Z1, Z2, S5]))
            d, p = data.draw(st.sampled_from([1, 2])), data.draw(st.sampled_from([2, 3, 5]))
            coefficient = st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)
            terms = data.draw(st.dictionaries(st.sampled_from(cayley_ball(group, 2).elements), coefficient, max_size=4))
            c = GroupRingKernel(group, d, p, {g: [v[i * d : (i + 1) * d] for i in range(d)] for g, v in terms.items()})
            dom_radius = data.draw(st.integers(0, 2))
            dom = cayley_ball(group, dom_radius)
            cod = cayley_ball(group, dom_radius + c.support_radius() + data.draw(st.integers(0, 1)))
        assert restriction_matrix(c, dom.radius, cod.radius).dense() == restriction_by_products(c, dom, cod)


class TestTransplant:
    def test_blocks_at_chart_rows(self):
        # column block j holds the identity's coefficient at row block charts[j, 0]
        c = GroupRingKernel(Z1, 2, 3, {(0,): FpMatrix([[1, 0], [2, 1]], 3)})
        m = transplant(c, np.array([[1], [0]]), cayley_ball(Z1, 0), 2)
        assert m.dense().array.tolist() == [[0, 0, 1, 0], [0, 0, 2, 1], [1, 0, 0, 0], [2, 1, 0, 0]]

    def test_int32_charts_past_the_int32_row_range(self):
        # vertex * d passes 2^31 on int32 charts of 2^31 vertices; no graph is built
        diag, row = FpMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 5), FpMatrix([[0, 4, 0]] * 3, 5)
        c = GroupRingKernel(Z1, 3, 5, {(0,): diag, (1,): row})
        ball = cayley_ball(Z1, 1)
        charts = np.array([[2**31 - 1, 2**30, 0], [2**30 + 7, 2**31 - 2, 9]], dtype=np.int32)
        m = transplant(c, charts, ball, 2**31)
        want = sorted(
            (int(charts[j, ball.element_index[g]]) * 3 + a, j * 3 + b, int(coeff[a, b]))
            for j in range(2)
            for g, coeff in zip(c.support, c.coeffs)
            for a, b in zip(*np.nonzero(coeff))
        )
        assert m.shape == (3 * 2**31, 6) and max(want)[0] > 3 * 2**30
        assert list(zip(m.row.tolist(), m.col.tolist(), m.val.tolist())) == want

    @given(st.sampled_from([Z1, Z2, S5]), st.sampled_from([1, 2, 3]), st.sampled_from([2, 3, 7]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_injective_charts_against_shuffled_entries(self, group, d, p, data):
        """transplant sorts its entries itself; FpSparse given them in any order must store the same matrix."""
        ball = cayley_ball(group, data.draw(st.integers(0, 2)))
        coefficient = st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)
        terms = data.draw(st.dictionaries(st.sampled_from(ball.elements), coefficient, max_size=4))
        c = GroupRingKernel(group, d, p, {g: [v[i * d : (i + 1) * d] for i in range(d)] for g, v in terms.items()})
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows, n = ball.size + data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
        charts = np.array([rng.permutation(rows)[: ball.size] for _ in range(n)], dtype=data.draw(
            st.sampled_from([np.int32, np.int64])
        )).reshape(n, ball.size)
        entries = [
            (int(charts[j, ball.element_index[g]]) * d + a, j * d + b, int(coeff[a, b]))
            for j in range(n)
            for g, coeff in zip(c.support, c.coeffs)
            for a, b in zip(*np.nonzero(coeff))
        ]
        rng.shuffle(entries)
        row, col, val = (np.array([e[k] for e in entries], dtype=np.int64) for k in range(3))
        want = FpSparse(row, col, val, (d * rows, d * n), p)
        m = transplant(c, charts, ball, rows)
        assert m.shape == want.shape
        for got, expected in zip((m.row, m.col, m.val), (want.row, want.col, want.val)):
            assert np.array_equal(got, expected)


class TestKernelRadius:
    def test_block_diagonal_singular(self):
        phi = GroupRingKernel(Z1, 2, 2, {(0,): FpMatrix([[1, 0], [0, 0]], 2)})
        assert kernel_radius(phi, 5) == 1

    def test_identity_has_no_kernel(self):
        assert kernel_radius(GroupRingKernel.identity(Z1, 2, 3), 6) is None

    def test_one_plus_t_has_no_kernel(self):
        for bound in (1, 4, 8):
            assert kernel_radius(one_plus_t(), bound) is None

    def test_shifted_kernel_radius_two(self):
        # s o u with u = I + t E_12 has kernel u^{-1}(e_2 at identity),
        # supported on {0, 1} when the off-diagonal coefficient moves it
        diag = GroupRingKernel(Z1, 2, 2, {(0,): FpMatrix([[1, 0], [0, 0]], 2)})
        u = GroupRingKernel(
            Z1, 2, 2, {(0,): FpMatrix.identity(2, 2), (1,): FpMatrix([[0, 1], [0, 0]], 2)}
        )
        c = compose(diag, u)
        r2 = kernel_radius(c, 6)
        assert r2 is not None and r2 <= 2

    def test_search_stops_at_the_complete_radius(self, monkeypatch):
        # (1+t) I_2 over F_2[Z]: d = 2 and rs = 1 give the complete radius 1, below the bound 6
        domains = []
        real = groupring.restriction_matrix

        def recording(c, n, m, max_ball_elements):
            domains.append(n)
            return real(c, n, m, max_ball_elements)

        monkeypatch.setattr(groupring, "restriction_matrix", recording)
        c = GroupRingKernel(Z1, 2, 2, {(0,): FpMatrix.identity(2, 2), (1,): FpMatrix.identity(2, 2)})
        assert kernel_radius(c, 6) is None
        assert domains == [1]


def random_coefficients(draw, group, d, p, radius):
    """A kernel with one to four random d x d coefficients on the radius-`radius` ball."""
    coefficient = st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)
    terms = draw(
        st.dictionaries(st.sampled_from(cayley_ball(group, radius).elements), coefficient, min_size=1, max_size=4)
    )
    return GroupRingKernel(group, d, p, {g: [v[i * d : (i + 1) * d] for i in range(d)] for g, v in terms.items()})


def maybe_singular(draw, c):
    """c itself, or c composed with the projector diag(1, ..., 1, 0) on either side: det 0 either way."""
    side = draw(st.sampled_from(["none", "before", "after"]))
    eye = np.eye(c.d, dtype=np.int64)
    eye[-1, -1] = 0
    proj = GroupRingKernel(c.group, c.d, c.p, {c.group.identity(): FpMatrix(eye, c.p)})
    return {"none": c, "before": compose(proj, c), "after": compose(c, proj)}[side]


@st.composite
def laurent_elements(draw):
    """Elements of Mat_d(F_p[Z^k]), k <= 3 and d <= 3, on supports that keep the search's balls small."""
    k, d, radius = draw(st.sampled_from([(1, 1, 3), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 3, 1)]))
    c = random_coefficients(draw, FreeAbelian(k), d, draw(st.sampled_from([2, 3])), radius)
    return maybe_singular(draw, c)


@st.composite
def finite_group_elements(draw):
    """Elements of Mat_d(F_p[G]) for G = S3 or S5, d <= 2, support anywhere in the group."""
    group = draw(st.sampled_from([S3, S5]))
    d = draw(st.integers(1, 2))
    c = random_coefficients(draw, group, d, draw(st.sampled_from([2, 3])), group.kernel_complete_radius(d, 0))
    return maybe_singular(draw, c)


# Singular elements over F_2[Z^k] whose first kernel radius is the complete radius (d-1) rs itself.
AT_THE_COMPLETE_RADIUS = [
    GroupRingKernel(Z1, 2, 2, {(1,): [[1, 0], [0, 0]], (2,): [[0, 1], [0, 0]], (3,): [[1, 0], [0, 0]], (-3,): [[1, 0], [0, 0]]}),
    GroupRingKernel(
        Z1,
        3,
        2,
        {
            (0,): [[0, 0, 0], [1, 1, 1], [0, 0, 0]],
            (-1,): [[1, 1, 1], [1, 0, 0], [0, 0, 0]],
            (-3,): [[1, 0, 0], [1, 0, 1], [0, 0, 0]],
            (3,): [[1, 0, 1], [0, 1, 1], [0, 0, 0]],
        },
    ),
    GroupRingKernel(Z2, 2, 2, {(-1, -1): [[0, 1], [0, 0]], (-2, 0): [[0, 1], [0, 0]], (1, 1): [[1, 1], [0, 0]]}),
]


class TestCompleteRadius:
    """kernel_radius stops at the group's complete radius and returns what the full scan up to the bound returns."""

    @pytest.mark.parametrize("c", AT_THE_COMPLETE_RADIUS)
    def test_kernel_radius_can_equal_the_complete_radius(self, c):
        rs = c.support_radius()
        bound = default_kernel_search_bound(rs)
        assert kernel_radius(c, bound) == kernel_radius_scan(c, bound) == c.group.kernel_complete_radius(c.d, rs)
        assert c.group.kernel_complete_radius(c.d, rs) == (c.d - 1) * rs and not laurent_det(c)

    @settings(max_examples=30, deadline=None)
    @given(laurent_elements())
    def test_free_abelian_matches_scan_and_determinant(self, c):
        bound = default_kernel_search_bound(c.support_radius())
        r2 = kernel_radius(c, bound)
        assert r2 == kernel_radius_scan(c, bound)
        assert (r2 is None) == bool(laurent_det(c))
        assert r2 is None or r2 <= c.group.kernel_complete_radius(c.d, c.support_radius())

    @settings(max_examples=25, deadline=None)
    @given(finite_group_elements())
    def test_finite_groups_match_scan(self, c):
        bound = default_kernel_search_bound(c.support_radius())
        assert kernel_radius(c, bound) == kernel_radius_scan(c, bound)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(laurent_elements(), finite_group_elements(), st.sampled_from(AT_THE_COMPLETE_RADIUS)), st.data())
    def test_each_radius_is_ranked_once(self, c, data):
        """The search restricts to top = kernel_search_top first, then to 1, 2, ... below it, each once."""
        bound = data.draw(st.integers(1, default_kernel_search_bound(c.support_radius())))
        radii = []
        real = groupring.restriction_matrix

        def recording(c, n, m, max_ball_elements):
            radii.append(n)
            return real(c, n, m, max_ball_elements)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groupring, "restriction_matrix", recording)
            r2 = kernel_radius(c, bound)
        assert r2 == kernel_radius_scan(c, bound)
        top = kernel_search_top(c, bound)
        assert radii == [top] + ([] if r2 is None else list(range(1, min(r2 + 1, top))))


kernel_strategy = st.builds(
    lambda terms: scalar_kernel(Z1, 2, {(g,): c for g, c in terms.items()}),
    st.dictionaries(st.integers(-2, 2), st.integers(0, 1), max_size=4),
)


class TestAlgebraProperties:
    @given(kernel_strategy, kernel_strategy, kernel_strategy)
    @settings(max_examples=40, deadline=None)
    def test_compose_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(kernel_strategy)
    @settings(max_examples=30, deadline=None)
    def test_identity_laws(self, a):
        ident = GroupRingKernel.identity(Z1, 1, 2)
        assert compose(a, ident) == a
        assert compose(ident, a) == a

    @pytest.mark.parametrize("group, d", [(Z1, 1), (Z2, 2), (S5, 2)], ids=["Z1", "Z2", "S5"])
    def test_restriction_naturality(self, group, d):
        """M_{a o b} = M_a M_b; with matrix coefficients over Z^2 and S5 a swapped factor order fails."""
        rng = random.Random(11)
        near = cayley_ball(group, 2).elements

        def draw():
            terms = {g: [[rng.randrange(3) for _ in range(d)] for _ in range(d)] for g in near if rng.random() < 0.6}
            return GroupRingKernel(group, d, 3, terms)

        for _ in range(20):
            a, b = draw(), draw()
            ra, rb = a.support_radius(), b.support_radius()
            n = 1
            dom, mid, cod = n, n + rb, n + ra + rb
            lhs = restriction_matrix(compose(a, b), dom, cod).dense()
            rhs = mat_mul(restriction_matrix(a, mid, cod).dense(), restriction_matrix(b, dom, mid).dense())
            assert lhs == rhs

    @pytest.mark.parametrize("group", [Z1, Z2, S5], ids=["Z1", "Z2", "S5"])
    @pytest.mark.parametrize("seed", range(3))
    def test_left_inverse_restricts_to_the_inclusion(self, group, seed):
        """compose(psi, phi) = 1 makes M_psi M_phi, from B_n through B_{n+rs}, the inclusion of B_n.

        rs is phi's support radius.  x = I + E_12 t^g is no left inverse of
        itself (x o x = I + 2 E_12 t^(g g)), and its product is no inclusion.
        """
        phi, psi = random_invertible_pair(random.Random(seed), group, 2, 3, max_factors=3)
        x = GroupRingKernel.identity(group, 2, 3) + GroupRingKernel(
            group, 2, 3, {group.generators[0]: FpMatrix([[0, 1], [0, 0]], 3)}
        )
        assert compose(psi, phi).is_identity() and not compose(x, x).is_identity()
        n = 1
        for a, b, expected in ((psi, phi, True), (x, x, False)):
            rb = b.support_radius()
            dom, mid, cod = (cayley_ball(group, r) for r in (n, n + rb, n + rb + a.support_radius()))
            product = mat_mul(restriction_by_products(a, mid, cod), restriction_by_products(b, dom, mid))
            inclusion = np.eye(2 * cod.size, 2 * dom.size, dtype=np.int64)  # balls are prefixes
            assert np.array_equal(product.array, inclusion) is expected

    def test_direct_finiteness_on_involution(self):
        x = involution()
        assert check_right_inverse(x, x)
        assert check_right_inverse(x, x)  # both orders coincide here
        assert kernel_radius(x, 9) is None


class TestFiniteGroupRing:
    def test_zero_divisor_in_cyclic_six(self):
        G = cyclic_group(6)
        sigma = scalar_kernel(G, 2, {i: 1 for i in range(6)})
        one_minus_t = scalar_kernel(G, 2, {0: 1, 1: 1})  # 1 + t = 1 - t mod 2
        assert compose(sigma, one_minus_t).support == ()
        assert kernel_radius(sigma, 4) is not None
