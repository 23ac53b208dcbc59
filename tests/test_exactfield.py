import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np

from oracles import dense_rank
from soficrank.exactfield import (
    MAX_MODULUS,
    FpMatrix,
    FpSparse,
    is_prime,
    kernel_basis,
    mat_mul,
    rank,
    parse_rational,
)

LARGEST_PRIME = max(q for q in range(MAX_MODULUS - 100, MAX_MODULUS + 1) if is_prime(q))


def F2(rows):
    return FpMatrix(rows, 2)


class TestModulus:
    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            FpMatrix([[1]], 6)


class TestMatMul:
    def test_identity_neutral(self):
        m = FpMatrix([[1, 2], [3, 4]], 5)
        assert mat_mul(FpMatrix.identity(2, 5), m) == m
        assert mat_mul(m, FpMatrix.identity(2, 5)) == m

    def test_f2_square(self):
        m = F2([[1, 1], [0, 1]])
        assert mat_mul(m, m) == FpMatrix.identity(2, 2)

    def test_zero_absorbs(self):
        m = FpMatrix([[1, 2], [3, 4]], 7)
        z = FpMatrix.zeros(2, 2, 7)
        assert mat_mul(z, m) == z

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(FpMatrix.zeros(2, 3, 5), FpMatrix.zeros(2, 3, 5))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(FpMatrix.zeros(2, 2, 5), FpMatrix.zeros(2, 2, 7))


class TestRankKernel:
    def test_identity_rank(self):
        for n in (1, 2, 5):
            assert rank(FpMatrix.identity(n, 3)) == n
            assert kernel_basis(FpMatrix.identity(n, 3)) == []

    def test_zero_matrix(self):
        z = FpMatrix.zeros(3, 3, 2)
        assert rank(z) == 0
        assert len(kernel_basis(z)) == 3

    def test_equal_rows_f2(self):
        assert rank(F2([[1, 1], [1, 1]])) == 1

    def test_kernel_of_sum_row(self):
        basis = kernel_basis(F2([[1, 1]]))
        assert len(basis) == 1
        assert basis[0].array.ravel().tolist() == [1, 1]


matrices = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.sampled_from([2, 3, 5, 7]).flatmap(
            lambda p: st.lists(
                st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(lambda rows: FpMatrix(rows, p))
        )
    )
)


class TestProperties:
    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert mat_mul(m, v).is_zero()

    @given(matrices, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_rank_invariant_under_row_permutation(self, m, rnd):
        perm = list(range(m.rows))
        rnd.shuffle(perm)
        shuffled = FpMatrix(m.array[perm, :], m.p)
        assert rank(shuffled) == rank(m)
        assert len(kernel_basis(shuffled)) == len(kernel_basis(m))

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_associative(self, p, a, b, c, d, data):
        def draw(rows, cols):
            entries = data.draw(
                st.lists(
                    st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            )
            return FpMatrix(entries, p)

        x, y, z = draw(a, b), draw(b, c), draw(c, d)
        assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))

    def test_determinism_repeated_runs(self):
        m = FpMatrix([[2, 4, 1], [3, 0, 5], [2, 4, 1]], 7)
        first_rank = rank(m)
        first_kernel = [k.array.tolist() for k in kernel_basis(m)]
        for _ in range(5):
            assert rank(m) == first_rank
            assert [k.array.tolist() for k in kernel_basis(m)] == first_kernel


class TestRationals:
    def test_parse(self):
        assert parse_rational("1/10") == Fraction(1, 10)
        assert parse_rational("3") == Fraction(3)
        with pytest.raises(ValueError):
            parse_rational("x/y")


class TestImmutability:
    def test_array_read_only(self):
        m = FpMatrix.identity(2, 5)
        with pytest.raises(ValueError):
            m.array[0, 0] = 3

    def test_no_attribute_assignment(self):
        m = FpMatrix.identity(2, 5)
        with pytest.raises(AttributeError):
            m.p = 7


def random_case(rng: np.random.Generator, kind: str, rows: int, cols: int, p: int) -> np.ndarray:
    """Residues of one matrix kind: sparse random, all zero, full rank, or a product of rank at most k."""
    if kind == "sparse":
        return rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < rng.random())
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "full":
        # a nonzero diagonal with anything above it, then rows and columns shuffled
        a = np.triu(rng.integers(0, p, (rows, cols)), 1)
        k = min(rows, cols)
        a[np.arange(k), np.arange(k)] = rng.integers(1, p, k)
        return a[rng.permutation(rows)][:, rng.permutation(cols)]
    k = int(rng.integers(0, 4))
    left = rng.integers(0, p, (rows, k)) * (rng.random((rows, k)) < 0.5)
    return left @ rng.integers(0, p, (k, cols)) % p


class TestSparseRankOracle:
    """rank (sparse elimination) against dense_rank on the same residues."""

    @given(
        st.sampled_from([2, 3, LARGEST_PRIME]),
        st.sampled_from(["sparse", "zero", "full", "product"]),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_rank(self, p, kind, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = random_case(rng, kind, rows, cols, p)
        # unreduced and negative entries, some split over repeated positions
        shift = rng.integers(-3, 4, a.shape) * p
        row, col = np.nonzero((a != 0) | (shift != 0))
        val = a[row, col] + shift[row, col]
        part = rng.integers(-2 * p, 2 * p, row.size)
        m = FpSparse(np.r_[row, row], np.r_[col, col], np.r_[val - part, part], (rows, cols), p)
        assert m.dense() == FpMatrix(a, p)
        expected = dense_rank(FpMatrix(a, p))
        assert rank(m) == expected
        if kind == "full":
            assert expected == min(rows, cols)

    def test_largest_prime_is_below_the_bound(self):
        assert LARGEST_PRIME == 1048573 and is_prime(LARGEST_PRIME)

    def test_dense_input_reads_its_nonzero_entries(self):
        m = FpMatrix([[2, 4, 1], [3, 0, 5], [2, 4, 1]], 7)
        assert rank(m) == rank(FpSparse.from_dense(m)) == dense_rank(m) == 2

    def test_wide_banded_chain_rank(self):
        # I + shift on Z/400 over F_2: each row and column holds two entries, and the wrap closes the chain
        n = 400
        v = np.arange(n)
        m = FpSparse(np.r_[v, (v + 1) % n], np.r_[v, v], np.ones(2 * n), (n, n), 2)
        assert rank(m) == dense_rank(m.dense()) == n - 1


class TestFpSparse:
    def test_shape_and_entries_checked(self):
        with pytest.raises(ValueError):
            FpSparse([0], [3], [1], (2, 2), 3)
        with pytest.raises(ValueError):
            FpSparse([0, 1], [0], [1], (2, 2), 3)

    def test_read_only(self):
        m = FpSparse([0], [1], [5], (2, 2), 3)
        assert (m.rows, m.cols, m.val.tolist()) == (2, 2, [2])
        with pytest.raises(ValueError):
            m.val[0] = 1
        with pytest.raises(AttributeError):
            m.p = 5

    def test_zeros_dropped(self):
        m = FpSparse([0, 0, 1], [1, 1, 1], [1, 2, 3], (2, 2), 3)
        assert m.val.size == 0 and rank(m) == 0

    def test_from_blocks(self):
        m = FpSparse.from_blocks([[1, 0]], [np.array([[1, 0], [2, 1]])], (4, 4), 3)
        assert m.dense().array.tolist() == [[0, 0, 1, 0], [0, 0, 2, 1], [1, 0, 0, 0], [2, 1, 0, 0]]
