"""Exact dense-matrix arithmetic over prime fields F_p.

Matrices are int64 arrays of residues in [0, p); every operation reduces
modulo p, so nothing ever passes through floating point.  The modulus is
capped so that a product plus accumulation always fits in int64 exactly.
Rational quantities (densities, tolerances) use fractions.Fraction, which
already maintains reduced form with a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# (p-1)^2 * inner_dim must stay below 2^63 for exact int64 accumulation.
MAX_MODULUS = 1 << 20
_MAX_INNER_DIM = 1 << 22


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
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_MODULUS}")


class FpMatrix:
    """Dense matrix over F_p.  Immutable after construction."""

    __slots__ = ("array", "p")

    def __init__(self, entries, p: int, _normalized: bool = False):
        validate_modulus(p)
        arr = np.array(entries, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        if not _normalized:
            arr %= p
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p, _normalized=True)

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), p, _normalized=True)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def is_zero(self) -> bool:
        return not self.array.any()

    def _require_same_field(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._require_same_field(other)
        if self.array.shape != other.array.shape:
            raise ValueError(f"shape mismatch: {self.array.shape} vs {other.array.shape}")
        return FpMatrix((self.array + other.array) % self.p, self.p, _normalized=True)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._require_same_field(other)
        if self.array.shape != other.array.shape:
            raise ValueError(f"shape mismatch: {self.array.shape} vs {other.array.shape}")
        return FpMatrix((self.array - other.array) % self.p, self.p, _normalized=True)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix((-self.array) % self.p, self.p, _normalized=True)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self.array.shape == other.array.shape and bool(
            np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.p, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.array.tolist()!r})"


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Exact matrix product modulo the common prime.

    No verdict path multiplies transplanted matrices; this dense product is
    the reference that tests check the chart-based transfer identity
    against, and the benchmark's tracer (bench/spans.py) wraps it by name.
    """
    a._require_same_field(b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.cols > _MAX_INNER_DIM:
        raise ValueError(f"inner dimension {a.cols} exceeds exact-arithmetic bound {_MAX_INNER_DIM}")
    return FpMatrix((a.array @ b.array) % a.p, a.p, _normalized=True)


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


def rank(m: FpMatrix) -> int:
    """Row rank via exact elimination mod p."""
    return len(_forward_eliminate(m.array, m.p)[1])


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
        basis.append(FpMatrix(x, m.p, _normalized=True))
    return basis


def rational_to_json(q: Fraction) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}: {exc}")
