import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import equivariant_entry, restriction_by_products, symmetric_group_5
from soficrank import groupring
from soficrank.errors import InternalInconsistency
from soficrank.exactfield import FpMatrix, mat_mul, rank
from soficrank.groupring import (
    GroupRingKernel,
    check_right_inverse,
    compose,
    kernel_radius,
    restriction_matrix,
    support_data,
    transplant,
)
from soficrank.groups import FreeAbelian, cayley_ball, cyclic_group

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
S5 = symmetric_group_5()


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
        k = GroupRingKernel(Z1, 2, 3, {(0,): FpMatrix.zeros(2, 2, 3)})
        assert k.is_zero()

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            GroupRingKernel(Z1, 2, 3, {(0,): FpMatrix.identity(3, 3)})

    def test_foreign_element_rejected(self):
        with pytest.raises(ValueError):
            GroupRingKernel(Z1, 1, 2, {(0, 0): FpMatrix([[1]], 2)})

    def test_support_radius(self):
        k = scalar_kernel(Z2, 2, {(0, 0): 1, (1, -1): 1})
        assert k.support_radius() == 2
        assert GroupRingKernel.zero(Z1, 1, 2).support_radius() == 0


class TestEquivariantEntry:
    def test_identity_kernel_diagonal(self):
        ident = GroupRingKernel.identity(Z1, 2, 3)
        assert equivariant_entry(ident, (4,), (4,)) == FpMatrix.identity(2, 3)
        assert equivariant_entry(ident, (4,), (5,)).is_zero()

    def test_shift_entry(self):
        t = scalar_kernel(Z1, 2, {(1,): 1})
        assert equivariant_entry(t, (5,), (4,)).array[0, 0] == 1
        assert equivariant_entry(t, (5,), (5,)).is_zero()

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
        z = GroupRingKernel.zero(Z1, 2, 2)
        m = restriction_matrix(z, 1, 1)
        assert m.dense().is_zero()

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
            c, dom, cod = GroupRingKernel.zero(S5, 2, 3), cayley_ball(S5, 1), cayley_ball(S5, 1)
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

    def test_kernel_at_bound_but_at_no_radius_is_inconsistent(self, monkeypatch):
        # Only the first elimination, the one at max_n, reports a kernel.
        calls = []

        def first_call_singular(m):
            calls.append(m)
            return m.cols - 1 if len(calls) == 1 else m.cols

        monkeypatch.setattr(groupring, "rank", first_call_singular)
        with pytest.raises(InternalInconsistency, match=r"max_n = 3 but at no radius n <= 3"):
            kernel_radius(one_plus_t(), 3)
        assert len(calls) == 4


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

    def test_restriction_naturality(self):
        rng = random.Random(11)
        for _ in range(20):
            a = scalar_kernel(
                Z1, 3, {(g,): rng.randrange(3) for g in range(-2, 3) if rng.random() < 0.6}
            )
            b = scalar_kernel(
                Z1, 3, {(g,): rng.randrange(3) for g in range(-2, 3) if rng.random() < 0.6}
            )
            ra, rb = a.support_radius(), b.support_radius()
            n = 1
            dom, mid, cod = n, n + rb, n + ra + rb
            lhs = restriction_matrix(compose(a, b), dom, cod).dense()
            rhs = mat_mul(restriction_matrix(a, mid, cod).dense(), restriction_matrix(b, dom, mid).dense())
            assert lhs == rhs

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
        assert compose(sigma, one_minus_t).is_zero()
        assert kernel_radius(sigma, 4) is not None
