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
Both guarantees are re-checked before returning, (2) with a breadth-first
walk from every selected vertex that stops at the nearest other selected
vertex; the walks advance together, a block of picks at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

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
    nearest = []
    if len(v1) > 1:
        depth, other = _nearest_other_picks(graph.out, np.array(v1), _pick_block(approx.charts, n))
        for u, d, w in zip(v1, depth.tolist(), other.tolist()):
            if 0 <= d < sep:
                raise InternalInconsistency(f"selected vertices {u}, {w} at directed distance {d} < {sep}")
        nearest = depth[depth >= 0].tolist()

    return WeissSelection(
        v1=v1,
        r0=r0,
        density_bound=density_bound,
        achieved_density=achieved,
        min_pairwise_distance=min(nearest, default=None),
    )


def _pick_block(charts: np.ndarray, n: int) -> int:
    """Picks that walk at once, at least one: their slot array, |V| + 1 bytes per pick, is no larger than the charts."""
    return max(1, charts.nbytes // (n + 1))


def _nearest_other_picks(out: np.ndarray, picks: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed distance from each pick to its nearest other pick, and that pick; -1 for both when none is reachable.

    The picks walk the out-table breadth first in blocks of `block`, all
    picks of a block one layer at a time, and a pick stops at the first
    layer that holds another pick.  Slot k * (|V| + 1) + 1 + v of the
    block's slot array marks v as reached from the block's k-th pick, and
    slot k * (|V| + 1), marked from the start, takes its missing edges.  A
    layer takes its new slots one label at a time: a label is a partial
    injection, so one label's slots are distinct, and the marks drop those
    an earlier label or layer reached.
    """
    n, labels = out.shape
    stride = n + 1
    is_pick = np.zeros(n, dtype=bool)
    is_pick[picks] = True
    depth = np.full(len(picks), -1, dtype=np.int64)
    other = np.full(len(picks), -1, dtype=np.int64)
    for start in range(0, len(picks), block):
        front = picks[start : start + block]
        walking = np.ones(len(front), dtype=bool)
        owner = np.arange(len(front))  # the pick of each frontier vertex, within the block
        seen = np.zeros(len(front) * stride, dtype=bool)
        seen[owner * stride] = True
        seen[owner * stride + 1 + front] = True
        layer = 0
        while front.size:
            layer += 1
            slots = (owner * stride + 1)[:, None] + out[front]
            fresh = []
            for label in range(labels):
                new = slots[:, label]
                new = new[~seen[new]]
                seen[new] = True
                fresh.append(new)
            owner, front = np.divmod(np.concatenate(fresh), stride)
            front -= 1
            hit = is_pick[front]
            if hit.any():
                done = owner[hit]
                depth[start + done] = layer
                other[start + done] = front[hit]
                walking[done] = False
                keep = walking[owner]
                owner, front = owner[keep], front[keep]
    return depth, other
