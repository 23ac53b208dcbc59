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
        terms = sorted(self.support, key=self.group.element_key)
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
    return GroupRingKernel(group, d, p, {g: FpMatrix(m, p, _normalized=True) for g, m in acc.items()})


def check_right_inverse(c_phi: GroupRingKernel, c_psi: GroupRingKernel) -> bool:
    """True exactly when compose(c_phi, c_psi) is the identity kernel."""
    c_phi._require_compatible(c_psi)
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


def restriction_matrix(c: GroupRingKernel, dom: CayleyBall, cod: CayleyBall) -> FpSparse:
    """Sparse matrix of c restricted to a domain ball, landing in a codomain ball.

    Block at (row element g2, column element g1) is c(g1^{-1} g2).  The
    codomain radius must be at least domain radius + support radius so the
    image is captured in full; anything smaller would silently truncate
    rows and change kernels.
    """
    if dom.group != c.group or cod.group != c.group:
        raise ValueError("balls must belong to the kernel's group")
    rs = c.support_radius()
    if cod.radius < dom.radius + rs:
        raise ValueError(
            f"codomain ball radius {cod.radius} too small: need at least "
            f"domain radius {dom.radius} + support radius {rs}"
        )
    group = c.group
    at = np.empty((len(c.support), dom.size), dtype=np.int64)  # [s, j]: row block of c(s) in column g1_j
    for j, g1 in enumerate(dom.elements):
        for k, s in enumerate(c.support):
            g2 = group._mul(g1, s)  # a ball element times a validated support element
            i = cod.element_index.get(g2)
            if i is None:
                raise InternalInconsistency(
                    f"{group.format_element(g2)} = {group.format_element(g1)} * "
                    f"{group.format_element(s)} lies outside the radius-{cod.radius} codomain ball"
                )
            at[k, j] = i
    return FpSparse.from_blocks(
        at, [mat.array for mat in c.support.values()], (c.d * cod.size, c.d * dom.size), c.p
    )


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
    group = c.group

    def has_kernel(n: int) -> bool:
        dom = cayley_ball(group, n, max_elements=max_ball_elements)
        cod = cayley_ball(group, n + rs, max_elements=max_ball_elements)
        m = restriction_matrix(c, dom, cod)
        return rank(m) < m.cols

    if not has_kernel(max_n):
        return None
    for n in range(1, max_n + 1):
        if has_kernel(n):
            return n
    raise InternalInconsistency(f"kernel found at radius max_n = {max_n} but at no radius n <= {max_n}")
