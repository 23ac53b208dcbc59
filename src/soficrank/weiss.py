"""Greedy selection of a separated, dense subset of good vertices.

Given a sofic approximation verified at radius >= 2*r0+1 whose good set
V0 holds at least half the vertices, the greedy sweep below returns a
subset V1 of V0 such that

  (1) |V1| / |V| >= 1 / (2 * |N_{2r0+1}(B)|), and
  (2) any two distinct selected vertices are at directed distance
      >= 2*r0 + 1 from each other, in both directions.

Selection iterates good vertices in ascending index order, keeps the
current vertex, and discards every candidate within directed distance
<= 2*r0 of it.  Discarding up to distance 2*r0 (not 2*r0+1) leaves the
survivors at distance >= 2*r0+1, which is exactly guarantee (2), while
removing as few candidates as possible.  The discard set of a pick v is
N_{2r0}(v), read off the verified chart at v as its prefix over the
radius-2*r0 Cayley ball; it has |N_{2r0}(B)| <= |N_{2r0+1}(B)| elements,
which yields guarantee (1).  Out-distance suffices for the discard
because those out-balls are symmetric within their radius, so a
too-close survivor in either direction would already have been removed.
Both guarantees are re-checked before returning, (2) with one
breadth-first walk per selected vertex that stops at the nearest other
selected vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .digraph import distances
from .errors import ApproximationTooCoarse, InternalInconsistency, PreconditionDensity
from .sofic import SoficApproximation


@dataclass(eq=False)
class WeissSelection:
    v1: tuple[int, ...]
    r0: int
    density_bound: Fraction
    achieved_density: Fraction
    min_pairwise_distance: Optional[int]

    def __repr__(self):
        return (
            f"WeissSelection(|V1|={len(self.v1)}, r0={self.r0}, "
            f"density={self.achieved_density} >= {self.density_bound})"
        )


def weiss_select(approx: SoficApproximation, r0: int) -> WeissSelection:
    """Greedy separated selection from the approximation's good vertices.

    The approximation must be verified at radius >= 2*r0 + 1
    (ApproximationTooCoarse otherwise), and its good set must hold at
    least half the vertices, exactly (PreconditionDensity otherwise).  An
    approximation with no vertices has no density and raises ValueError.
    """
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    sep = 2 * r0 + 1
    if approx.radius < sep:
        raise ApproximationTooCoarse(
            f"approximation verified at radius {approx.radius}, selection needs {sep}"
        )
    graph, good = approx.graph, approx.good_vertices
    n = graph.vertex_count
    if n == 0:
        raise ValueError("the approximation has no vertices to select from")
    if 2 * len(good) < n:
        raise PreconditionDensity(f"|good| = {len(good)} is less than |V|/2 = {Fraction(n, 2)}")

    # Smaller balls are prefixes of the approximation's ball, whose depth-k
    # elements end at layers[k + 1]; a finite group's ball can stop short of sep.
    layers = approx.ball.layers
    ball_size, discard_size = (int(layers[min(k, len(layers) - 2) + 1]) for k in (sep, sep - 1))
    alive = np.zeros(n, dtype=bool)
    alive[list(good)] = True
    selected = []
    for v, chart in zip(good, approx.charts):  # ascending order
        if alive[v]:
            selected.append(v)
            alive[chart[:discard_size]] = False

    v1 = tuple(selected)
    density_bound = Fraction(1, 2 * ball_size)
    achieved = Fraction(len(v1), n)

    # Guarantee (1), integer form.
    if len(v1) * 2 * ball_size < n:
        raise InternalInconsistency(
            f"selection density violated: {len(v1)} * 2 * {ball_size} < {n}"
        )
    # Guarantee (2), checked in both directions: from each pick, walk only
    # until the first other pick appears.  BFS depth never decreases, so
    # that pick is the nearest, and the least of these depths is the least
    # directed distance over all ordered pairs.  A single pick has no pair
    # and nothing to walk to.
    picks = set(v1)
    nearest = []
    for u in v1 if len(v1) > 1 else ():
        for w, d in distances(graph, u):
            if d and w in picks:
                if d < sep:
                    raise InternalInconsistency(f"selected vertices {u}, {w} at directed distance {d} < {sep}")
                nearest.append(d)
                break

    return WeissSelection(
        v1=v1,
        r0=r0,
        density_bound=density_bound,
        achieved_density=achieved,
        min_pairwise_distance=min(nearest, default=None),
    )
