import json
import pytest
from dataclasses import dataclass
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np

from oracles import dense_rank, json_value, sparse_by_accumulation
from soficrank import exactfield
from soficrank.exactfield import (
    MAX_MODULUS,
    FpMatrix,
    FpSparse,
    is_prime,
    json_text,
    kernel_basis,
    mat_mul,
    rank,
    parse_rational,
    validate_modulus,
)

LARGEST_PRIME = max(q for q in range(MAX_MODULUS - 100, MAX_MODULUS + 1) if is_prime(q))


def F2(rows):
    return FpMatrix(rows, 2)


class TestModulus:
    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            FpMatrix([[1]], 6)

    def test_bound_is_checked_before_primality(self, monkeypatch):
        # Trial division of 2^61 - 1 would run for minutes.
        def no_primality_test(n):
            raise AssertionError(f"is_prime({n}) was called")

        monkeypatch.setattr(exactfield, "is_prime", no_primality_test)
        with pytest.raises(ValueError, match=r"^modulus 2305843009213693951 exceeds the supported bound 1048576$"):
            validate_modulus((1 << 61) - 1)

    @pytest.mark.parametrize(
        "p, message",
        [
            (1 << 21, r"^modulus 2097152 exceeds the supported bound 1048576$"),
            (1048583, r"^modulus 1048583 exceeds the supported bound 1048576$"),
            (1048575, r"^modulus must be a prime integer, got 1048575$"),
            (True, r"^modulus must be a prime integer, got True$"),
            (7.0, r"^modulus must be a prime integer, got 7.0$"),
        ],
    )
    def test_messages(self, p, message):
        with pytest.raises(ValueError, match=message):
            validate_modulus(p)


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
            assert rank(FpSparse.from_dense(FpMatrix.identity(n, 3))) == n
            assert kernel_basis(FpMatrix.identity(n, 3)) == []

    def test_zero_matrix(self):
        z = FpMatrix.zeros(3, 3, 2)
        assert rank(FpSparse.from_dense(z)) == 0
        assert len(kernel_basis(z)) == 3

    def test_equal_rows_f2(self):
        assert rank(FpSparse.from_dense(F2([[1, 1], [1, 1]]))) == 1

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
        assert rank(FpSparse.from_dense(m)) + len(kernel_basis(m)) == m.cols

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
        assert rank(FpSparse.from_dense(shuffled)) == rank(FpSparse.from_dense(m))
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
        first_rank = rank(FpSparse.from_dense(m))
        first_kernel = [k.array.tolist() for k in kernel_basis(m)]
        for _ in range(5):
            assert rank(FpSparse.from_dense(m)) == first_rank
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
    """Residues of one matrix kind: sparse random, all zero, full rank, a product of rank at most k,
    monomial (at most one nonzero per column) or its transpose, or a bordered dense core."""
    if kind == "monomial":
        # rows drawn from a few, so that several columns hit one row; some columns stay empty
        a = np.zeros((rows, cols), dtype=np.int64)
        if rows:
            a[rng.integers(0, max(1, rows // 3), cols), np.arange(cols)] = rng.integers(0, p, cols)
        return a
    if kind == "monomial-transpose":
        return random_case(rng, "monomial", cols, rows, p).T.copy()
    if kind == "bordered":
        # a dense core with trees of border columns hung off it: border column j holds a
        # nonzero in its own row j and, on a coin flip, in an earlier row; each border row
        # past the last column holds at most two entries.  Leaves are singletons at once;
        # inner nodes become singletons only after a Markowitz round
        a = np.zeros((rows, cols), dtype=np.int64)
        if not a.size:
            return a
        k = min(rows, cols) // 6
        a[:k, :k] = rng.integers(0, p, (k, k))
        j = np.arange(k, cols)
        own = j[j < rows]
        a[own, own] = rng.integers(1, p, own.size)
        earlier = j[(j > 0) & (rng.random(j.size) < 0.7)]
        a[rng.integers(0, np.minimum(earlier, rows)), earlier] = rng.integers(1, p, earlier.size)
        i = np.arange(cols, rows)
        for at in (rng.integers(0, cols, i.size), rng.integers(0, cols, i.size)):
            a[i, at] = rng.integers(0, p, i.size)
        return a[rng.permutation(rows)][:, rng.permutation(cols)]
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
        st.sampled_from(["sparse", "zero", "full", "product", "monomial", "monomial-transpose", "bordered"]),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=500, deadline=None)
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
        assert rank(FpSparse.from_dense(m)) == dense_rank(m) == 2

    def test_wide_banded_chain_rank(self):
        # I + shift on Z/400 over F_2: each row and column holds two entries, and the wrap closes the chain
        n = 400
        v = np.arange(n)
        m = FpSparse(np.r_[v, (v + 1) % n], np.r_[v, v], np.ones(2 * n), (n, n), 2)
        assert rank(m) == dense_rank(m.dense()) == n - 1


def open_path(n: int, p: int) -> FpSparse:
    """The (n+1) x n matrix of 1 - t restricted to an open path: a 1 and a -1 in each column."""
    v = np.arange(n)
    return FpSparse(np.r_[v, v + 1], np.r_[v, v], np.r_[np.ones(n), -np.ones(n)], (n + 1, n), p)


def refuse(*args):
    raise AssertionError("only singleton passes were expected")


class TestSingletonPeel:
    """rank's singleton pass: exact where it applies, and run once per elimination round."""

    @pytest.mark.parametrize("p", [2, 3, LARGEST_PRIME])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57])
    def test_open_path(self, n, p):
        m = open_path(n, p)
        assert rank(m) == dense_rank(m.dense()) == n

    @pytest.mark.parametrize(
        "a, expected",
        [
            # columns 0 and 1 are singletons in one row; (1, 2) is alone in its row and its column
            ([[1, 2, 0], [0, 0, 3], [0, 0, 0]], 2),
            # no column singleton; rows 0 and 1 are singletons in column 0, rows 2 and 3 in column 1
            ([[1, 0], [2, 0], [0, 3], [0, 4]], 2),
        ],
    )
    def test_colliding_singletons_in_one_pass(self, monkeypatch, a, expected):
        m = FpSparse.from_dense(FpMatrix(a, 5))
        assert dense_rank(m.dense()) == expected
        monkeypatch.setattr(exactfield, "_pivot_round", refuse)
        monkeypatch.setattr(exactfield, "_forward_eliminate", refuse)
        assert rank(m) == expected

    def test_colliding_singletons_over_rounds(self):
        # the column pass takes row 0 (columns 0 and 1, one pivot) and row 3 (column 4, alone
        # in its row too), and leaves one column with two entries; in the transpose the
        # singleton columns 1 and 2 share row 2 and column 3 is alone in row 4
        a = np.array(
            [
                [1, 2, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 2, 0, 0],
                [0, 0, 0, 0, 3],
                [0, 0, 0, 0, 0],
            ]
        )
        for m in (FpMatrix(a, 5), FpMatrix(a.T, 5)):
            assert rank(FpSparse.from_dense(m)) == dense_rank(m) == 3

    def test_one_pass_per_round(self, monkeypatch):
        # each pass removes only the two ends of an open path; a loop to a fixpoint would run n/2 passes
        calls = {"_peel_singletons": 0, "_pivot_round": 0}

        def counted(name):
            inner = getattr(exactfield, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(exactfield, name, counted(name))
        assert rank(open_path(1600, 2)) == 1600
        assert 1 <= calls["_peel_singletons"] <= calls["_pivot_round"] + 1


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

    @given(
        st.sampled_from([2, 3, 7, LARGEST_PRIME]),
        st.integers(0, 6),
        st.integers(0, 6),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_canonical_form_from_any_coordinates(self, p, rows, cols, in_order, as_arrays, data):
        """Repeats, zeros, values >= p or negative, any order or sorted, the empty list: one stored form."""
        cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
        value = st.one_of(st.integers(1, p - 1), st.just(0), st.integers(-3 * p, 3 * p), st.integers(-(2**40), 2**40))
        entries = data.draw(st.lists(st.tuples(cells, value), max_size=30 if rows and cols else 0))
        if in_order:  # sorted by place, so that repeats, zeros and values outside [1, p) are the only faults
            entries.sort(key=lambda e: e[0])
        row = [r for (r, _), _ in entries]
        col = [c for (_, c), _ in entries]
        val = [v for _, v in entries]
        args = [np.array(a, dtype=np.int64) for a in (row, col, val)] if as_arrays else [row, col, val]
        m = FpSparse(*args, (rows, cols), p)
        key = m.row * cols + m.col
        assert (np.diff(key) > 0).all()
        assert ((1 <= m.val) & (m.val < p)).all()
        assert m.dense() == sparse_by_accumulation(row, col, val, (rows, cols), p)
        assert rank(m) == dense_rank(m.dense())

    @pytest.mark.parametrize(
        "row, col, val, want",
        [
            ([0, 0], [1, 1], [1, 1], [(0, 1, 2)]),  # a repeated place
            ([0, 0], [1, 1], [1, 2], []),  # a repeated place that sums to 0
            ([0, 1], [0, 0], [0, 1], [(1, 0, 1)]),  # a zero value
            ([0, 1], [0, 1], [3, 1], [(1, 1, 1)]),  # a value equal to p
            ([0, 1], [0, 1], [4, -1], [(0, 0, 1), (1, 1, 2)]),  # values above p and below 0
        ],
    )
    def test_sorted_but_not_canonical_is_coalesced(self, row, col, val, want):
        m = FpSparse(row, col, val, (2, 2), 3)
        assert list(zip(m.row.tolist(), m.col.tolist(), m.val.tolist())) == want
        assert m.dense() == sparse_by_accumulation(row, col, val, (2, 2), 3)

    def test_canonical_input_kept_and_not_shared(self):
        row, col, val = np.array([0, 0, 2]), np.array([1, 2, 0]), np.array([1, 2, 1])
        m = FpSparse(row, col, val, (3, 3), 3)
        assert (m.row.tolist(), m.col.tolist(), m.val.tolist()) == ([0, 0, 2], [1, 2, 0], [1, 2, 1])
        row[0] = col[0] = val[0] = 2  # the caller's arrays stay the caller's
        assert (m.row[0], m.col[0], m.val[0]) == (0, 1, 1)
        with pytest.raises(ValueError):
            m.row[0] = 1

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes(self, shape):
        m = FpSparse([], [], [], shape, 5)
        assert m.shape == shape and m.val.size == 0 and rank(m) == 0
        with pytest.raises(ValueError):
            FpSparse([0], [0], [1], shape, 5)


@dataclass
class Pair:
    second: object
    first: object


@dataclass
class Empty:
    pass


_SPECIAL_CHARACTERS = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "\u2028", "\U0001f600"])
JSON_TEXT = st.text(st.one_of(st.characters(), _SPECIAL_CHARACTERS), max_size=8)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-3, 3),
    st.fractions(),
    JSON_TEXT,
    st.lists(st.integers(), max_size=6).map(tuple),  # the all-int join
    st.lists(st.one_of(st.integers(-2, 2), st.booleans()), max_size=6).map(tuple),
    st.builds(Empty),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=24,
)


class TestJsonText:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_bytes_of_json_indent_two(self, x):
        assert json_text(x) == json.dumps(json_value(x), sort_keys=True, indent=2)

    def test_fixed_layout(self):
        x = {"b": (1, -2, 10**30), "a": Pair(Fraction(-3, 4), {}), "c": [True, None, ()], "d": Empty()}
        assert json_text(x) == (
            '{\n  "a": {\n    "first": {},\n    "second": {\n      "den": 4,\n      "num": -3\n    }\n  },\n'
            '  "b": [\n    1,\n    -2,\n    1000000000000000000000000000000\n  ],\n'
            '  "c": [\n    true,\n    null,\n    []\n  ],\n  "d": {}\n}'
        )

    @pytest.mark.parametrize(
        "x",
        [{(1, 2): 0}, {1: 0}, np.int64(3), (np.int64(3),), 0.5, {"a": 0.5}, {1, 2}, b"x", Empty, object()],
        ids=["tuple-key", "int-key", "numpy-scalar", "numpy-in-tuple", "float", "nested-float", "set", "bytes",
             "dataclass-type", "object"],
    )
    def test_refuses_what_json_or_exactness_refuses(self, x):
        with pytest.raises(TypeError):
            json_text(x)
