"""Exact matrix arithmetic over prime fields F_p.

Matrices hold int64 residues in [0, p): FpMatrix as a dense array, FpSparse
as coordinate (row, col, value) arrays of its nonzero entries.  Every
operation reduces modulo p, so nothing ever passes through floating point.
The modulus is capped so that a product plus accumulation always fits in
int64 exactly.  Rational quantities (densities, tolerances) use
fractions.Fraction, which already maintains reduced form with a positive
denominator.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

# (p-1)^2 * inner_dim must stay below 2^63 for exact int64 accumulation.
MAX_MODULUS = 1 << 20
_MAX_INNER_DIM = 1 << 22


@functools.lru_cache(maxsize=256)  # called for every FpMatrix and FpSparse; a run sees few moduli
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def validate_modulus(p: int) -> None:
    """Accept a prime int up to MAX_MODULUS; the bound comes before the primality test, which is slow for huge p."""
    is_int = isinstance(p, int) and not isinstance(p, bool)
    if is_int and p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_MODULUS}")
    if not is_int or not is_prime(p):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")


class FpMatrix:
    """Dense matrix over F_p.  Immutable after construction."""

    __slots__ = ("array", "p")

    def __init__(self, entries, p: int):
        validate_modulus(p)
        arr = np.array(entries, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        arr %= p
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def is_zero(self) -> bool:
        return not self.array.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self.array.shape == other.array.shape and bool(
            np.array_equal(self.array, other.array)
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.array.tolist()!r})"


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Exact matrix product modulo the common prime.

    No verdict path multiplies transplanted matrices; this dense product is
    the reference that tests check the chart-based transfer identity
    against, and the benchmark's tracer (bench/spans.py) wraps it by name.
    """
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: {a.p} vs {b.p}")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.cols > _MAX_INNER_DIM:
        raise ValueError(f"inner dimension {a.cols} exceeds exact-arithmetic bound {_MAX_INNER_DIM}")
    return FpMatrix(a.array @ b.array, a.p)


class FpSparse:
    """Sparse matrix over F_p in coordinate form.  Immutable after construction.

    The int64 arrays row, col and val list the nonzero entries in its one
    canonical form: sorted by (row, col), every val in [1, p), no position
    repeated.  The constructor brings any coordinate lists to that form:
    values are reduced mod p, entries at a repeated position summed and
    zeros dropped.  Lists already in that form, which it checks in one
    pass, skip the sort and the summing.  It keeps copies, so the caller's
    arrays stay the caller's.
    """

    __slots__ = ("row", "col", "val", "shape", "p")

    def __init__(self, row, col, val, shape, p: int):
        validate_modulus(p)
        rows, cols = (int(n) for n in shape)
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix shape must be nonnegative, got {shape}")
        row, col, val = (np.array(a, dtype=np.int64, copy=True).ravel() for a in (row, col, val))
        if not row.size == col.size == val.size:
            raise ValueError(f"coordinate arrays differ in length: {row.size}, {col.size}, {val.size}")
        if row.size and not (0 <= row.min() and row.max() < rows and 0 <= col.min() and col.max() < cols):
            raise ValueError(f"an entry lies outside the {rows}x{cols} shape")
        if not _is_canonical(row, col, val, cols, p):
            row, col, val = _coalesce(row, col, val % p, cols, p)
        for a in (row, col, val):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (row, col, val, (rows, cols), p)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FpSparse is immutable")

    @classmethod
    def from_dense(cls, m: FpMatrix) -> "FpSparse":
        row, col = np.nonzero(m.array)
        return cls(row, col, m.array[row, col], m.array.shape, m.p)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def dense(self) -> FpMatrix:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row, self.col] = self.val
        return FpMatrix(out, self.p)


def _is_canonical(row, col, val, cols: int, p: int) -> bool:
    """Whether entries inside the shape are sorted by strictly increasing (row, col), with every val in [1, p)."""
    if not row.size:
        return True
    key = row * cols + col
    return bool((key[1:] > key[:-1]).all() and val.min() >= 1 and val.max() < p)


def _coalesce(row, col, val, cols: int, p: int):
    """Entries sorted by (row, col), those at one position summed mod p, zeros dropped.

    Sums stay exact: a position collects at most as many terms as there
    are entries, each below p.
    """
    if not row.size:
        return row, col, val
    key = row * cols + col
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    val = np.add.reduceat(val, starts) % p
    key = key[starts]
    keep = val != 0
    return key[keep] // cols, key[keep] % cols, val[keep]


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise x^(p-2) mod p, the inverse of each nonzero residue; products stay below 2^40."""
    out, power, e = np.ones_like(x), x % p, p - 2
    while e:
        if e & 1:
            out = out * power % p
        power = power * power % p
        e >>= 1
    return out


# Once the active block holds more than this share of nonzero cells, sparse
# rounds gain little over dense elimination of it.
_DENSE_SWITCH = 0.1
# Markowitz costs are capped before packing next to a 32-bit tie-break hash.
_COST_CAP = (1 << 30) - 1


def _tie_hash(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Fixed 32-bit hash of each (row, col), so that equal costs break ties without following index order."""
    h = row.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ col.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    return (h >> np.uint64(32)).astype(np.int64)


def _pivot_round(row, col, val, cols: int, p: int):
    """Eliminate one independent set of pivots; return (pivot count, Schur complement entries).

    Entries come sorted by (row, col) with no zeros.  Each row offers its
    entry of least Markowitz cost (row nnz - 1)(col nnz - 1), ties broken
    by _tie_hash.  A candidate is a pivot when its key is the least among
    all candidates it conflicts with: those in its column, those whose
    column meets its row, and those whose row meets its column (Liu's
    multiple minimum degree).  So no pivot's row meets another pivot's
    column, the pivots form a diagonal block, and the complement of the
    whole round is one update: entry (r, c) loses L(r, c_i) U(r_i, c) / a_i
    summed over the pivots (r_i, c_i, a_i).
    """
    starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    per_row = np.diff(np.r_[starts, row.size])
    per_col = np.bincount(col, minlength=cols)
    cost = np.minimum((np.repeat(per_row, per_row) - 1) * (per_col[col] - 1), _COST_CAP)
    key = cost << 32 | _tie_hash(row, col)
    least = np.repeat(np.minimum.reduceat(key, starts), per_row)
    hit = np.flatnonzero(key == least)
    cand = hit[np.r_[True, row[hit[1:]] != row[hit[:-1]]]]  # first least entry of each row
    # Rank the candidates by (key, row): a strict order with no ties.
    order = np.empty(cand.size, dtype=np.int64)
    order[np.lexsort((row[cand], key[cand]))] = np.arange(cand.size)
    in_col = np.full(cols, cand.size)
    np.minimum.at(in_col, col[cand], order)
    meets_row = np.minimum.reduceat(in_col[col], starts)
    meets_col = np.full(cols, cand.size)
    np.minimum.at(meets_col, col, np.repeat(order, per_row))
    is_pivot = np.minimum(meets_row, meets_col[col[cand]]) == order
    pivots = cand[is_pivot]

    # Pivots are numbered in row order, so the pivot-row entries come grouped by pivot.
    pivot_of_row = np.repeat(np.where(is_pivot, np.cumsum(is_pivot) - 1, -1), per_row)
    pivot_of_col = np.full(cols, -1)
    pivot_of_col[col[pivots]] = np.arange(pivots.size)
    pivot_of_col = pivot_of_col[col]
    upper = np.flatnonzero((pivot_of_row >= 0) & (pivot_of_col < 0))
    lower = np.flatnonzero((pivot_of_col >= 0) & (pivot_of_row < 0))
    lower = lower[np.argsort(pivot_of_col[lower], kind="stable")]
    keep = (pivot_of_row < 0) & (pivot_of_col < 0)

    # Pair each lower entry of pivot i with every upper entry of pivot i.
    n_upper = np.bincount(pivot_of_row[upper], minlength=pivots.size)
    first_upper = np.cumsum(n_upper) - n_upper
    of = pivot_of_col[lower]
    reps = n_upper[of]
    offsets = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    u = upper[np.repeat(first_upper[of], reps) + offsets]
    factor = val[lower] * (p - _inverse_mod(val[pivots], p)[of]) % p  # -L / a_i
    return pivots.size, (
        np.concatenate([row[keep], np.repeat(row[lower], reps)]),
        np.concatenate([col[keep], col[u]]),
        np.concatenate([val[keep], np.repeat(factor, reps) * val[u] % p]),
    )


def _peel_singletons(row, col, val, shape):
    """One singleton pass of rank: return (pivot count, entries left).

    Entries come sorted by (row, col), at least one, with no zeros.  If
    some column holds a single entry, every row such a column meets is one
    pivot and loses all its entries; otherwise, if some row holds a single
    entry, every column such a row meets is one pivot and loses all its
    entries.  Boolean masks keep the entries left in (row, col) order.
    """
    alone = np.bincount(col, minlength=shape[1])[col] == 1
    if alone.any():
        hit = np.zeros(shape[0], dtype=bool)
        hit[row[alone]] = True
        keep = ~hit[row]
    else:
        first = np.r_[True, row[1:] != row[:-1]]
        alone = first & np.r_[first[1:], True]
        if not alone.any():
            return 0, (row, col, val)
        hit = np.zeros(shape[1], dtype=bool)
        hit[col[alone]] = True
        keep = ~hit[col]
    return int(np.count_nonzero(hit)), (row[keep], col[keep], val[keep])


def rank(m: FpSparse) -> int:
    """Rank of an FpSparse by exact sparse elimination mod p, read off its canonical entries.

    Each round starts with one singleton pass (_peel_singletons).  It is
    exact over any field: if column c has its only nonzero at (i, c),
    column operations with c clear the rest of row i, so rank(A) = 1 +
    rank(A without row i and column c).  Pivots in distinct rows are
    independent, and a second singleton column that meets an already hit
    row becomes zero with that row, so each hit row adds exactly one; rows
    of one entry are the same argument on the transpose.  The pass runs
    once a round, never to a fixpoint: on an open path each pass removes
    only the two ends, so a loop would run a pass for every two columns.
    Then, once the remaining nonzeros fill more than _DENSE_SWITCH of their
    rows times their columns, that block is eliminated densely; otherwise a
    round of independent Markowitz pivots (_pivot_round) shrinks the matrix
    to its Schur complement.  The rank does not depend on the pivots chosen.
    """
    row, col, val = m.row, m.col, m.val
    found = 0
    while val.size:
        count, (row, col, val) = _peel_singletons(row, col, val, m.shape)
        found += count
        if not val.size:
            break
        active_rows = np.count_nonzero(np.r_[True, row[1:] != row[:-1]])
        active_cols = np.count_nonzero(np.bincount(col))
        if val.size > _DENSE_SWITCH * active_rows * active_cols:
            _, i = np.unique(row, return_inverse=True)
            _, j = np.unique(col, return_inverse=True)
            block = np.zeros((active_rows, active_cols), dtype=np.int64)
            block[i, j] = val
            # the elimination loops over columns, so give it the shorter side
            block = block.T if active_rows < active_cols else block
            return found + len(_forward_eliminate(block, m.p)[1])
        count, entries = _pivot_round(row, col, val, m.cols, m.p)
        found += count
        row, col, val = _coalesce(*entries, m.cols, m.p)
    return found


def _forward_eliminate(arr: np.ndarray, p: int):
    """Row echelon form by exact Gaussian elimination.

    Deterministic: the pivot in each column is the first row with a nonzero
    entry.  Returns (echelon array, pivot column list).
    """
    a = arr.copy()
    rows, cols = a.shape
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def _reduced_echelon(arr: np.ndarray, p: int):
    a, piv_cols = _forward_eliminate(arr, p)
    for r in reversed(range(len(piv_cols))):
        c = piv_cols[r]
        above = np.nonzero(a[:r, c])[0]
        if above.size:
            a[above, c:] = (a[above, c:] - np.outer(a[above, c], a[r, c:])) % p
    return a, piv_cols


def kernel_basis(m: FpMatrix) -> list[FpMatrix]:
    """Basis of the right null space, as column vectors.

    Empty exactly when rank(m) == cols(m).  One basis vector per free
    column, in ascending column order.
    """
    a, piv_cols = _reduced_echelon(m.array, m.p)
    pivots = set(piv_cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        x = np.zeros((m.cols, 1), dtype=np.int64)
        x[f, 0] = 1
        for r, c in enumerate(piv_cols):
            x[c, 0] = (-int(a[r, f])) % m.p
        basis.append(FpMatrix(x, m.p))
    return basis


def json_text(x) -> str:
    """The report x as JSON text: json.dumps(..., sort_keys=True, indent=2) of its JSON form, without json's Python indenter.

    The JSON form of a Fraction is {"den", "num"}, of a tuple a list, of a
    dataclass the dict of its fields; dicts with str keys, lists, str, int,
    bool and None are their own.  Anything else, a float included, raises
    TypeError: reports are exact.  An all-int list is joined in one call.
    """
    return _json_text(x, "\n")


def _json_text(x, nl: str) -> str:
    """x as JSON text whose nested lines start with nl, a newline and the indent of x's own line."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (tuple, list)):
        if not x:
            return "[]"
        if set(map(type, x)) == {int}:
            body = map(int.__repr__, x)
        else:
            body = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if isinstance(x, Fraction):
        items = [("den", x.denominator), ("num", x.numerator)]
    elif isinstance(x, dict):
        items = sorted(x.items())  # a key that is not a str is refused by encode_basestring_ascii
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        items = sorted((f.name, getattr(x, f.name)) for f in dataclasses.fields(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return "{}"
    body = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in items]
    return "{" + inner + ("," + inner).join(body) + nl + "}"


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}: {exc}")
