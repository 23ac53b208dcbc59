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
Both guarantees are re-checked before returning.  For (2), each pick's
verified chart is read for its nearest other pick: the chart maps the
radius-R ball onto the pick's out-neighbourhood of radius R >= 2*r0+1,
and maps the ball's depth-j layer onto the vertices at directed distance
j, so the first position holding another pick gives its exact distance.
Only when no pick sees another within R does one `digraph.distances`
search from each pick, stopped at its nearest other pick, find the least
distance beyond R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .digraph import _BLOCK_ENTRIES, LabeledDigraph, distances
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
    layers = approx.ball.layers.tolist()
    ball_size, discard_size = (layers[min(k, len(layers) - 2) + 1] for k in (sep, sep - 1))
    charts = approx.charts
    rows = _sweep(good, charts, discard_size, n)
    v1 = tuple(good[rows].tolist())
    density_bound = Fraction(1, 2 * ball_size)
    achieved = Fraction(len(v1), n)

    # Guarantee (1), integer form.
    if len(v1) * 2 * ball_size < n:
        raise InternalInconsistency(
            f"selection density violated: {len(v1)} * 2 * {ball_size} < {n}"
        )
    # Guarantee (2), checked in both directions: the least of the picks'
    # nearest-pick depths is the least directed distance over all ordered
    # pairs.  A pick that sees no other pick in its chart has none within
    # R, so the charts settle it whenever some pick sees one; otherwise a
    # search from each pick measures beyond R.  A single pick has no pair.
    nearest = None
    if len(v1) > 1:
        depth, other = _nearest_in_charts(charts, rows, layers, n)
        if (depth < 0).all():
            depth, other = _nearest_by_distances(graph, v1)
        close = np.flatnonzero((depth >= 0) & (depth < sep))
        if close.size:
            k = int(close[0])
            raise InternalInconsistency(f"selected vertices {v1[k]}, {int(other[k])} at directed distance {int(depth[k])} < {sep}")
        nearest = min(depth[depth >= 0].tolist(), default=None)

    return WeissSelection(
        v1=v1,
        r0=r0,
        density_bound=density_bound,
        achieved_density=achieved,
        min_pairwise_distance=nearest,
    )


def _sweep(good: np.ndarray, charts: np.ndarray, discard_size: int, n: int) -> np.ndarray:
    """The chart rows of the greedy picks, in ascending order.

    A good vertex still alive is picked and kills the first discard_size
    vertices of its chart.  The alive flags are read per vertex from a
    bytearray and written per pick through a numpy view of it, indexed by
    intp rows, since numpy casts an index of any other width on every
    write.  The discard rows are converted in blocks, each starting at a
    pick, of _BLOCK_ENTRIES // discard_size^2 rows: about one row in
    discard_size is a pick, so narrow rows are converted many picks at a
    time and wide ones about one pick at a time, never many rows per pick.
    """
    flags = bytearray(n)
    alive = np.frombuffer(flags, dtype=bool)
    alive[good] = True
    step = max(1, _BLOCK_ENTRIES // discard_size**2)
    lo = hi = 0
    rows = []
    for k, v in enumerate(good.tolist()):
        if flags[v]:
            rows.append(k)
            if k >= hi:
                lo, hi = k, k + step
                discard = charts[lo:hi, :discard_size].astype(np.intp)
            alive[discard[k - lo]] = False
    return np.array(rows, dtype=np.intp)


def _nearest_in_charts(charts: np.ndarray, rows: np.ndarray, layers: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed distance from each pick to its nearest other pick, and that pick, read off the charts; -1 for both when a chart holds none.

    The picks are the vertices charts[rows, 0] of a graph on n vertices;
    each row maps its ball's depth-j positions layers[j]:layers[j + 1]
    onto the vertices at directed distance j from its pick, so the first
    position that holds another pick gives the distance.
    """
    is_pick = np.bincount(charts[rows, 0], minlength=n) > 0
    hit = is_pick[charts[rows]]
    hit[:, 0] = False  # the pick itself
    first = hit.argmax(axis=1)  # 0 where the row holds no other pick
    depth = np.where(first > 0, np.searchsorted(layers, first, side="right") - 1, -1)
    other = np.where(first > 0, charts[rows, first], -1)
    return depth, other


def _nearest_by_distances(graph: LabeledDigraph, picks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Directed distance from each pick to its nearest other pick, and that pick, by one `distances` search per pick; -1 for both when none is reachable."""
    others = set(picks)
    found = [next(((d, u) for u, d in distances(graph, v) if u != v and u in others), (-1, -1)) for v in picks]
    depth, other = np.array(found, dtype=np.int64).T
    return depth, other
