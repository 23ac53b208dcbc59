"""Exact arithmetic for matrix group-ring elements as kernel functions.

An element of Mat_d(F_p[G]) is stored as its finitely supported kernel
c: G -> Mat_d(F_p), the column of the corresponding equivariant map above
the identity.  Equivariance determines the full column-finite matrix from
that single column: the entry at (g2, g1) is c(g1^{-1} * g2).  Composition
is convolution of kernels, and restricting an element to a pair of Cayley
balls produces a finite sparse matrix whose exact rank can be computed.

An element is its sorted support and one (|support|, d, d) array of its
nonzero coefficients, so kernel equality is equality of that pair.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .digraph import label_walk
from .errors import InternalInconsistency
from .exactfield import FpMatrix, FpSparse, rank, validate_modulus
from .groups import CayleyBall, GroupModel, cayley_ball
from .limits import DEFAULT_MAX_BALL_ELEMENTS


class GroupRingKernel:
    """Finitely supported function G -> Mat_d(F_p): a sorted support and its nonzero coefficients.

    coeffs is a read-only int64 array of shape (|support|, d, d), reduced
    mod p; coeffs[i] is the value at support[i].  The constructor takes a
    map from group elements to FpMatrix or array-like d x d coefficients.
    The support radius is computed once, when the fields are set.
    """

    __slots__ = ("group", "d", "p", "support", "coeffs", "_support_radius")

    def __init__(self, group: GroupModel, d: int, p: int, support):
        validate_modulus(p)
        if d < 1:
            raise ValueError("module dimension d must be at least 1")
        terms = dict(support)
        blocks = []
        for g, mat in terms.items():
            group.check_element(g)
            if isinstance(mat, FpMatrix):
                if mat.p != p:
                    raise ValueError(f"coefficient modulus {mat.p} does not match kernel modulus {p}")
                mat = mat.array
            blocks.append(np.asarray(mat, dtype=np.int64))
            if blocks[-1].shape != (d, d):
                raise ValueError(f"coefficient at {g!r} has shape {blocks[-1].shape}, expected ({d}, {d})")
        self._fill(group, d, p, list(terms), np.array(blocks, dtype=np.int64).reshape(-1, d, d))

    def _fill(self, group: GroupModel, d: int, p: int, keys: list, blocks: np.ndarray) -> None:
        """Set the fields: the blocks summed by key mod p, nonzero sums only, in key order."""
        order = sorted(set(keys))
        at = {g: i for i, g in enumerate(order)}
        coeffs = np.zeros((len(order), d, d), dtype=np.int64)
        np.add.at(coeffs, [at[g] for g in keys], blocks)
        coeffs %= p
        keep = coeffs.any(axis=(1, 2))
        coeffs = coeffs[keep]
        coeffs.setflags(write=False)
        support = tuple(g for g, kept in zip(order, keep.tolist()) if kept)
        radius = max((group.word_length(g) for g in support), default=0)
        for name, value in zip(self.__slots__, (group, d, p, support, coeffs, radius)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_terms(cls, group: GroupModel, d: int, p: int, keys: list, blocks: np.ndarray) -> "GroupRingKernel":
        """The kernel summing blocks[i] at keys[i]: checked elements, and blocks reduced mod p."""
        kernel = object.__new__(cls)
        kernel._fill(group, d, p, keys, blocks)
        return kernel

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingKernel is immutable")

    @classmethod
    def identity(cls, group: GroupModel, d: int, p: int) -> "GroupRingKernel":
        return cls(group, d, p, {group.identity(): np.eye(d, dtype=np.int64)})

    def support_radius(self) -> int:
        """Largest word length over the support (0 for the zero kernel)."""
        return self._support_radius

    def is_identity(self) -> bool:
        """Read off the support, with no second kernel: the identity element alone, valued I_d."""
        return self.support == (self.group.identity(),) and np.array_equal(self.coeffs[0], np.eye(self.d))

    def _require_compatible(self, other: "GroupRingKernel") -> None:
        if self.group != other.group:
            raise ValueError("kernels live over different groups")
        if self.d != other.d or self.p != other.p:
            raise ValueError(
                f"kernel parameters differ: d={self.d},p={self.p} vs d={other.d},p={other.p}"
            )

    def __add__(self, other: "GroupRingKernel") -> "GroupRingKernel":
        self._require_compatible(other)
        blocks = np.concatenate([self.coeffs, other.coeffs])
        return GroupRingKernel._from_terms(self.group, self.d, self.p, self.support + other.support, blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingKernel):
            return NotImplemented
        return (
            self.group == other.group
            and self.d == other.d
            and self.p == other.p
            and self.support == other.support
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return (
            f"GroupRingKernel({self.group.describe()}, d={self.d}, p={self.p}, "
            f"support={[self.group.format_element(g) for g in self.support]})"
        )


def compose(c_phi: GroupRingKernel, c_psi: GroupRingKernel) -> GroupRingKernel:
    """Kernel of the composite map phi o psi (convolution of supports).

    The result's value at x is the sum over h in supp(psi) of
    phi(h^{-1} x) * psi(h); equivalently the sum of phi(s) * psi(h) over
    all factorizations x = h * s.  Every block product comes from one
    einsum, reduced mod p, and the products are summed by x.
    """
    c_phi._require_compatible(c_psi)
    mul = c_phi.group._mul  # support keys were checked when their kernels were built
    keys = [mul(h, s) for h in c_psi.support for s in c_phi.support]
    blocks = np.einsum("sij,hjk->hsik", c_phi.coeffs, c_psi.coeffs) % c_phi.p
    return GroupRingKernel._from_terms(c_phi.group, c_phi.d, c_phi.p, keys, blocks.reshape(-1, c_phi.d, c_phi.d))


def check_right_inverse(c_phi: GroupRingKernel, c_psi: GroupRingKernel) -> bool:
    """True exactly when compose(c_phi, c_psi) is the identity kernel."""
    return compose(c_phi, c_psi).is_identity()


def support_data(c_phi: GroupRingKernel, c_psi: Optional[GroupRingKernel] = None):
    """Combined support set S and the product radius r1.

    S is the identity together with both supports (just phi's when psi is
    absent).  r1 is the largest word length over S * S, clamped to at
    least 1, so that every pairwise product lies in the radius-r1 ball.
    """
    group = c_phi.group
    s: set = {group.identity()}
    s.update(c_phi.support)
    if c_psi is not None:
        c_phi._require_compatible(c_psi)
        s.update(c_psi.support)
    mul = group._mul  # support keys were checked when their kernels were built
    r1 = 1
    for a in s:
        for b in s:
            r1 = max(r1, group.word_length(mul(a, b)))
    return frozenset(s), r1


def transplant(c: GroupRingKernel, charts: np.ndarray, ball: CayleyBall, rows: int) -> FpSparse:
    """Sparse block matrix of c read off charts over a ball: the one builder of block matrices.

    Column block j holds c(s) at row block charts[j, ball.element_index[s]]
    for every s in supp c, and nothing else; there are `rows` row blocks.
    The support lies in the ball, and each chart row is injective, so no
    two blocks share a place: the entries, sorted once by position, are
    already in FpSparse's canonical form.  The row indices vertex*d + a
    are int64 whatever the width of the charts.
    """
    d, n = c.d, len(charts)
    at = charts[:, [ball.element_index[s] for s in c.support]].astype(np.int64).T  # [s, j]
    s, a, b = np.nonzero(c.coeffs)  # one entry (s, a, b) per nonzero coefficient, s-major
    key = ((at[s] * d + a[:, None]) * (d * n) + np.arange(n, dtype=np.int64) * d + b[:, None]).ravel()
    # Positions are distinct, so any sort gives this order; numpy's stable
    # sort (timsort on int64) gains from the sorted runs the charts leave in the keys.
    order = np.argsort(key, kind="stable")
    key = key[order]
    return FpSparse(key // (d * n), key % (d * n), c.coeffs[s, a, b][order // n], (d * rows, d * n), c.p)


def support_walk(c: GroupRingKernel, cod: CayleyBall, starts: int) -> tuple[np.ndarray, CayleyBall]:
    """The ball of c's support radius, cut from cod, walked inside cod from its first `starts` elements.

    Returns the walk, whose entry [g, i] is the position in cod of g times
    the ball's i-th element, and the ball: transplant(c, walk, ball,
    cod.size) puts c(s) at row g * s of column g.  A walk that leaves cod
    raises InternalInconsistency.
    """
    rs = c.support_radius()
    ball = cod.prefix(rs)
    walk = label_walk(cod.graph, np.arange(starts), ball)
    missing = np.flatnonzero((walk < 0).any(axis=1))
    if missing.size:
        raise InternalInconsistency(
            f"the radius-{rs} ball walked from {c.group.format_element(cod.elements[missing[0]])} "
            f"leaves the radius-{cod.radius} codomain ball"
        )
    return walk, ball


def restriction_matrix(c: GroupRingKernel, n: int, m: int, max_ball_elements=DEFAULT_MAX_BALL_ELEMENTS) -> FpSparse:
    """Sparse matrix of c restricted to its group's radius-n ball, landing in the radius-m ball.

    Block at (row element g2, column element g1) is c(g1^{-1} g2).  The
    codomain radius m must be at least n + support radius so the image is
    captured in full; anything smaller would silently truncate rows and
    change kernels.  The domain and support balls are cut from the
    codomain ball, which is its own approximation around its interior: the
    support walk from each domain element, which sits at its own position
    there, puts g1 * s at column s of row g1, and transplant reads it.
    """
    rs = c.support_radius()
    if m < n + rs:
        raise ValueError(
            f"codomain ball radius {m} too small: need at least domain radius {n} + support radius {rs}"
        )
    cod = cayley_ball(c.group, m, max_elements=max_ball_elements)
    walk, ball = support_walk(c, cod, cod.prefix(n).size)
    return transplant(c, walk, ball, cod.size)


def kernel_radius(
    c: GroupRingKernel,
    max_n: int,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> Optional[int]:
    """Smallest n in [1, max_n] whose ball restriction has a nonzero kernel.

    A kernel vector supported in the radius-n ball stays a kernel vector in
    every larger ball, so emptiness at one radius settles emptiness
    everywhere below; that case costs a single rank computation.  At the
    group model's complete radius c has a kernel vector if it has one at any
    radius, so the search stops at the smaller of max_n and that radius
    (kernel_search_top) and returns what a scan of every n up to max_n
    would.  Each radius is ranked at most once: that top first, then every
    n below it, and top itself is the answer when none of them has a
    kernel.  Returns None when no kernel vector exists up to max_n: a proof
    that the kernel is empty when max_n reaches the complete radius, and
    otherwise only that none was found within the bound.
    """
    top = kernel_search_top(c, max_n)
    rs = c.support_radius()

    def has_kernel(n: int) -> bool:
        m = restriction_matrix(c, n, n + rs, max_ball_elements)
        return rank(m) < m.cols

    if not has_kernel(top):
        return None
    return next((n for n in range(1, top) if has_kernel(n)), top)


def kernel_search_top(c: GroupRingKernel, max_n: int) -> int:
    """The largest radius kernel_radius(c, max_n) restricts to: max_n or, if smaller, the complete radius."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    return min(max_n, c.group.kernel_complete_radius(c.d, c.support_radius()))
