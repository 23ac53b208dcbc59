"""Exact arithmetic for matrix group-ring elements as kernel functions.

An element of Mat_d(F_p[G]) is stored as its finitely supported kernel
c: G -> Mat_d(F_p), the column of the corresponding equivariant map above
the identity.  Equivariance determines the full column-finite matrix from
that single column: the entry at (g2, g1) is c(g1^{-1} * g2).  Composition
is convolution of kernels, and restricting an element to a pair of Cayley
balls produces a finite sparse matrix whose exact rank can be computed.

Zero coefficient matrices are never stored, so kernel equality is plain
support-map equality.
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
    """Finitely supported function G -> Mat_d(F_p), nonzero matrices only."""

    __slots__ = ("group", "d", "p", "support")

    def __init__(self, group: GroupModel, d: int, p: int, support):
        validate_modulus(p)
        if d < 1:
            raise ValueError("module dimension d must be at least 1")
        cleaned = {}
        for g, mat in dict(support).items():
            group.check_element(g)
            if not isinstance(mat, FpMatrix):
                mat = FpMatrix(mat, p)
            if mat.p != p:
                raise ValueError(f"coefficient modulus {mat.p} does not match kernel modulus {p}")
            if mat.rows != d or mat.cols != d:
                raise ValueError(f"coefficient at {g!r} is {mat.rows}x{mat.cols}, expected {d}x{d}")
            if not mat.is_zero():
                cleaned[g] = mat
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "support", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingKernel is immutable")

    @classmethod
    def identity(cls, group: GroupModel, d: int, p: int) -> "GroupRingKernel":
        return cls(group, d, p, {group.identity(): FpMatrix.identity(d, p)})

    @classmethod
    def zero(cls, group: GroupModel, d: int, p: int) -> "GroupRingKernel":
        return cls(group, d, p, {})

    def support_radius(self) -> int:
        """Largest word length over the support (0 for the zero kernel)."""
        if not self.support:
            return 0
        return max(self.group.word_length(g) for g in self.support)

    def is_identity(self) -> bool:
        return self == GroupRingKernel.identity(self.group, self.d, self.p)

    def is_zero(self) -> bool:
        return not self.support

    def _require_compatible(self, other: "GroupRingKernel") -> None:
        if self.group != other.group:
            raise ValueError("kernels live over different groups")
        if self.d != other.d or self.p != other.p:
            raise ValueError(
                f"kernel parameters differ: d={self.d},p={self.p} vs d={other.d},p={other.p}"
            )

    def __add__(self, other: "GroupRingKernel") -> "GroupRingKernel":
        self._require_compatible(other)
        acc = dict(self.support)
        for g, mat in other.support.items():
            acc[g] = acc[g] + mat if g in acc else mat
        return GroupRingKernel(self.group, self.d, self.p, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingKernel):
            return NotImplemented
        return (
            self.group == other.group
            and self.d == other.d
            and self.p == other.p
            and self.support == other.support
        )

    def __repr__(self):
        terms = sorted(self.support)
        return (
            f"GroupRingKernel({self.group.describe()}, d={self.d}, p={self.p}, "
            f"support={[self.group.format_element(g) for g in terms]})"
        )


def compose(c_phi: GroupRingKernel, c_psi: GroupRingKernel) -> GroupRingKernel:
    """Kernel of the composite map phi o psi (convolution of supports).

    The result's value at x is the sum over h in supp(psi) of
    phi(h^{-1} x) * psi(h); equivalently the sum of phi(s) * psi(h) over
    all factorizations x = h * s.
    """
    c_phi._require_compatible(c_psi)
    group, d, p = c_phi.group, c_phi.d, c_phi.p
    acc: dict = {}
    for h, mb in c_psi.support.items():
        for s, ma in c_phi.support.items():
            x = group.multiply(h, s)
            prod = (ma.array @ mb.array) % p
            if x in acc:
                acc[x] = (acc[x] + prod) % p
            else:
                acc[x] = prod
    return GroupRingKernel(group, d, p, acc)


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
    r1 = 1
    for a in s:
        for b in s:
            r1 = max(r1, group.word_length(group.multiply(a, b)))
    return frozenset(s), r1


def transplant(c: GroupRingKernel, charts: np.ndarray, ball: CayleyBall, rows: int) -> FpSparse:
    """Sparse block matrix of c read off charts over a ball: the one builder of block matrices.

    Column block j holds c(s) at row block charts[j, ball.element_index[s]]
    for every s in supp c, and nothing else; there are `rows` row blocks.
    The support lies in the ball, and each chart row is injective, so no
    two blocks share a place.
    """
    d = c.d
    at = charts[:, [ball.element_index[s] for s in c.support]].T  # [s, j]
    blocks = np.array([mat.array for mat in c.support.values()], dtype=np.int64).reshape(-1, d, d)
    s, a, b = np.nonzero(blocks)  # one entry (s, a, b) per nonzero coefficient, s-major
    row = at[s] * d + a[:, None]
    col = np.arange(len(charts), dtype=np.int64) * d + b[:, None]
    val = np.broadcast_to(blocks[s, a, b][:, None], row.shape)
    return FpSparse(row, np.broadcast_to(col, row.shape), val, (d * rows, d * len(charts)), c.p)


def restriction_matrix(c: GroupRingKernel, n: int, m: int, max_ball_elements=DEFAULT_MAX_BALL_ELEMENTS) -> FpSparse:
    """Sparse matrix of c restricted to its group's radius-n ball, landing in the radius-m ball.

    Block at (row element g2, column element g1) is c(g1^{-1} g2).  The
    codomain radius m must be at least n + support radius so the image is
    captured in full; anything smaller would silently truncate rows and
    change kernels.  A Cayley ball is its own approximation around its
    interior: the walk of the radius-rs ball from each domain element,
    which sits at its own position in the codomain since balls are
    prefixes, puts g1 * s at column s of row g1, and transplant reads it.
    """
    rs = c.support_radius()
    if m < n + rs:
        raise ValueError(
            f"codomain ball radius {m} too small: need at least domain radius {n} + support radius {rs}"
        )
    # the codomain first: the domain and the support ball are then its prefixes
    cod = cayley_ball(c.group, m, max_elements=max_ball_elements)
    dom = cayley_ball(c.group, n, max_elements=max_ball_elements)
    ball = cayley_ball(c.group, rs, max_elements=max_ball_elements)
    walk = label_walk(cod.graph, np.arange(dom.size), ball)
    missing = np.flatnonzero((walk < 0).any(axis=1))
    if missing.size:
        raise InternalInconsistency(
            f"the radius-{rs} ball walked from {c.group.format_element(dom.elements[missing[0]])} "
            f"leaves the radius-{cod.radius} codomain ball"
        )
    return transplant(c, walk, ball, cod.size)


def kernel_radius(
    c: GroupRingKernel,
    max_n: int,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> Optional[int]:
    """Smallest n in [1, max_n] whose ball restriction has a nonzero kernel.

    A kernel vector supported in the radius-n ball stays a kernel vector in
    every larger ball, so emptiness at max_n settles emptiness everywhere
    below; that case costs a single rank computation.  Returns None when no
    kernel vector exists up to max_n (which never certifies that the kernel
    is empty, only that it was not found within the bound).
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    rs = c.support_radius()

    def has_kernel(n: int) -> bool:
        m = restriction_matrix(c, n, n + rs, max_ball_elements)
        return rank(m) < m.cols

    if not has_kernel(max_n):
        return None
    for n in range(1, max_n + 1):
        if has_kernel(n):
            return n
    raise InternalInconsistency(f"kernel found at radius max_n = {max_n} but at no radius n <= {max_n}")
