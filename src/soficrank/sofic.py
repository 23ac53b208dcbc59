"""Construction and exact verification of sofic approximations.

A sofic approximation of a group G (with symmetric generators B) at radius
r and tolerance epsilon is a finite B-labeled digraph together with a good
vertex set V0 such that |V0| >= (1 - epsilon) * |V| holds exactly and the
r-neighborhood of every good vertex is isomorphic, as a rooted labeled
digraph, to the radius-r Cayley ball of G.

One builder serves every group family: the Cayley graph of the finite
quotient that the group model names (a discrete torus (Z/nZ)^k for Z^k,
the full Cayley graph of a finite group, which approximates itself
perfectly).  Everything it produces is re-checked from scratch by the
verifier, which charts every good vertex in one vectorised label walk
(digraph.ball_charts) and keeps the charts as one read-only array: the
transfer instance and the Weiss selection read their smaller-radius
charts as column prefixes of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .digraph import LabeledDigraph, ball_charts, table_edges
from .errors import AlphabetMismatch, BallMismatch, CardinalityViolation
from .groups import CayleyBall, GroupModel, cayley_ball
from .limits import DEFAULT_MAX_BALL_ELEMENTS, DEFAULT_MAX_VERTICES


@dataclass(eq=False)
class SoficApproximation:
    """A verified approximation: graph, good vertices, tolerance, radius.

    charts is a read-only int64 array with one row per good vertex: row k
    is the rooted isomorphism from the radius-r Cayley ball into the graph
    at good_vertices[k], indexed by ball element position (entry 0 is the
    vertex itself).  Its prefix over a smaller ball is the chart at that
    radius; the transfer instance and the Weiss selection take their
    charts from here instead of recomputing them.

    side is the side of the group's finite quotient that the graph is
    (quotient_approximation); None for a finite group and for a graph
    that was handed to the verifier.
    """

    group: GroupModel
    graph: LabeledDigraph
    good_vertices: tuple[int, ...]
    epsilon: Fraction
    radius: int
    ball: CayleyBall
    charts: np.ndarray
    side: Optional[int] = None

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def __repr__(self):
        return (
            f"SoficApproximation({self.group.describe()}, |V|={self.vertex_count}, "
            f"|V0|={len(self.good_vertices)}, r={self.radius}, eps={self.epsilon})"
        )


def verify_approximation(
    graph: LabeledDigraph,
    good_vertices,
    epsilon: Fraction,
    radius: int,
    group: GroupModel,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> SoficApproximation:
    """Check both sofic conditions exactly and return the verified structure.

    Raises AlphabetMismatch when the graph's label count differs from the
    group's generator count, CardinalityViolation when the good set is too
    small for epsilon, and BallMismatch at the lowest failing vertex when
    some good vertex's neighborhood is not isomorphic to the Cayley ball.
    """
    epsilon = check_preconditions(graph.num_labels, epsilon, radius, group)
    good = tuple(sorted(set(int(v) for v in good_vertices)))
    for v in good:
        if not (0 <= v < graph.vertex_count):
            raise ValueError(f"good vertex {v} out of range")
    n = graph.vertex_count
    if Fraction(len(good)) < (1 - epsilon) * n:
        raise CardinalityViolation(
            f"|V0| = {len(good)} < (1 - {epsilon}) * {n} = {(1 - epsilon) * n}"
        )
    ball = cayley_ball(group, radius, max_elements=max_ball_elements)
    charts, ok = ball_charts(graph, good, ball)
    if not ok.all():  # good is ascending, so this is the lowest failing vertex
        raise BallMismatch(good[int(np.argmin(ok))])
    charts.flags.writeable = False
    return SoficApproximation(
        group=group,
        graph=graph,
        good_vertices=good,
        epsilon=epsilon,
        radius=radius,
        ball=ball,
        charts=charts,
    )


def check_preconditions(num_labels: int, epsilon, radius: int, group: GroupModel) -> Fraction:
    """verify_approximation's first checks, in its order; they read only the graph's label count.

    Returns epsilon as a Fraction.  The CLI runs them on a graph file whose
    header's label count already rules the graph out, which is then never
    allocated.
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if num_labels != len(group.generators):
        raise AlphabetMismatch(
            f"graph has {num_labels} labels but {group.describe()} has "
            f"{len(group.generators)} generators"
        )
    return epsilon


def quotient_graph(group: GroupModel, side=None, max_vertices=DEFAULT_MAX_VERTICES) -> LabeledDigraph:
    """Cayley graph of the group's finite quotient with this side, labeled by the group's generators.

    For Z^k the torus (Z/nZ)^k at side n, vertex sum x_i * n^i at
    coordinates x; a finite group's own Cayley graph takes no side.
    """
    heads = group.quotient_table(side, max_vertices)
    return LabeledDigraph(len(heads), len(group.generators), table_edges(heads))


def quotient_approximation(
    group: GroupModel,
    r: int,
    side: Optional[int] = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> SoficApproximation:
    """The group's quotient graph verified at radius r, every vertex good at tolerance 1/(|V|+1).

    The group model picks the side (Z^k: 2r + 2 by default, and
    ApproximationTooCoarse below it; a finite group takes none), which the
    approximation records.  Takes the caller's group model, so the
    radius-r Cayley ball that a plan built on the same model is reused
    from its cache.
    """
    side = group.quotient_side(side, r)
    graph = quotient_graph(group, side, max_vertices)
    epsilon = Fraction(1, graph.vertex_count + 1)
    approx = verify_approximation(graph, range(graph.vertex_count), epsilon, r, group, max_ball_elements)
    return replace(approx, side=side)


def torus_approximation(group: GroupModel, n: int, r: int, **limits) -> SoficApproximation:
    """quotient_approximation at torus side n, kept only because bench/spans.py traces it by name."""
    return quotient_approximation(group, r, n, **limits)


def finite_group_approximation(group: GroupModel, r: int, **limits) -> SoficApproximation:
    """quotient_approximation of a finite group, kept only because bench/spans.py traces it by name."""
    return quotient_approximation(group, r, **limits)
