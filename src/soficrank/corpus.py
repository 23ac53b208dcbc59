"""Seeded random generators for experiment corpora.

Invertible elements of Mat_d(F_p[G]) are built as products of generalized
elementary factors with monomial entries (transvections for d >= 2 and
monomial diagonal units), each of which has an explicit inverse; the right
inverse of the product is the reversed product of the factor inverses.
Singular elements are built around an explicit rank-deficient coefficient,
so a restricted kernel vector is guaranteed within a small ball.
"""

from __future__ import annotations

import random

import numpy as np

from .groupring import GroupRingKernel, compose
from .groups import FreeAbelian, GroupModel


def transvection(group: GroupModel, d: int, p: int, i: int, j: int, coeff: int, g) -> tuple:
    """I + coeff * t^g at position (i, j), i != j, with its inverse."""
    if i == j:
        raise ValueError("transvection requires i != j")
    off = np.zeros((d, d), dtype=np.int64)
    off[i, j] = coeff
    one = GroupRingKernel.identity(group, d, p)
    return one + GroupRingKernel(group, d, p, {g: off}), one + GroupRingKernel(group, d, p, {g: -off})


def diagonal_unit(group: GroupModel, d: int, p: int, coeffs, elements) -> tuple:
    """diag(c_i * t^{g_i}) with its inverse diag(c_i^{-1} * t^{-g_i}).

    Stored as one support term per distinct group element appearing on the
    diagonal.
    """
    if len(coeffs) != d or len(elements) != d:
        raise ValueError("need one coefficient and one group element per diagonal slot")
    fwd: dict = {}
    bwd: dict = {}
    for i, (c, g) in enumerate(zip(coeffs, elements)):
        c = int(c) % p
        if c == 0:
            raise ValueError("diagonal coefficients must be units")
        for target, col_c, col_g in ((fwd, c, g), (bwd, pow(c, -1, p), group.inverse(g))):
            m = target.get(col_g)
            if m is None:
                m = np.zeros((d, d), dtype=np.int64)
                target[col_g] = m
            m[i, i] = col_c
    return GroupRingKernel(group, d, p, fwd), GroupRingKernel(group, d, p, bwd)


def random_invertible_pair(
    rng: random.Random,
    group: GroupModel,
    d: int,
    p: int,
    max_factors: int = 6,
    exponent_bound: int = 1,
) -> tuple[GroupRingKernel, GroupRingKernel]:
    """A pair (x, y) with x * y = 1 and y * x = 1 by construction."""
    n_factors = rng.randint(1, max_factors)
    factors = []
    for _ in range(n_factors):
        kind = rng.choice(["transvection", "diagonal"]) if d >= 2 else "diagonal"
        if kind == "transvection":
            i = rng.randrange(d)
            j = rng.randrange(d - 1)
            if j >= i:
                j += 1
            coeff = rng.randint(1, p - 1)
            g = group.random_element(rng, exponent_bound)
            factors.append(transvection(group, d, p, i, j, coeff, g))
        else:
            coeffs = [rng.randint(1, p - 1) for _ in range(d)]
            elements = [group.random_element(rng, exponent_bound) for _ in range(d)]
            factors.append(diagonal_unit(group, d, p, coeffs, elements))
    x = factors[0][0]
    for fwd, _ in factors[1:]:
        x = compose(x, fwd)
    y = factors[-1][1]
    for _, bwd in reversed(factors[:-1]):
        y = compose(y, bwd)
    return x, y


def random_singular_kernel(
    rng: random.Random,
    group: GroupModel,
    d: int,
    p: int,
    exponent_bound: int = 1,
    wide: bool = False,
) -> GroupRingKernel:
    """An element with a kernel vector inside a ball of radius at most 2.

    Built as u * s or s * u where s kills one coordinate at the identity
    and u is a single elementary factor with small support; the kernel of
    s * u contains u^{-1} applied to a coordinate vector.  Those kernels
    always contain a vector near the identity (equivariance lets kernel
    vectors be re-centered), so the plain variants sit at radius 1.  With
    `wide`, the factor shifts the killed coordinate by a word of length 3,
    forcing every kernel vector to have diameter 3; the smallest ball
    containing one then has radius exactly 2.
    """
    if d < 2:
        raise ValueError("singular elements with nonzero kernels need d >= 2")
    killed = rng.randrange(d)
    diag = np.eye(d, dtype=np.int64)
    diag[killed, killed] = 0
    s = GroupRingKernel(group, d, p, {group.identity(): diag})

    if wide:
        if not isinstance(group, FreeAbelian):
            raise ValueError("wide singular construction targets free abelian groups")
        i = rng.randrange(d - 1)
        if i >= killed:
            i += 1
        coeff = rng.randint(1, p - 1)
        g = tuple(3 if idx == 0 else 0 for idx in range(group.rank))
        u, _ = transvection(group, d, p, i, killed, coeff, g)
        return compose(s, u)

    variant = rng.choice(["plain", "before", "after"])
    if variant == "plain":
        return s
    i = rng.randrange(d)
    j = rng.randrange(d - 1)
    if j >= i:
        j += 1
    coeff = rng.randint(1, p - 1)
    g = group.random_element(rng, exponent_bound)
    u, _ = transvection(group, d, p, i, j, coeff, g)
    if variant == "before":
        return compose(u, s)  # kernel contains the killed coordinate at the identity
    return compose(s, u)  # kernel is u^{-1} of that coordinate, radius <= supp(u)

