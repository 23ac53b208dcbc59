"""Construction and exact verification of sofic approximations.

A sofic approximation of a group G (with symmetric generators B) at radius
r and tolerance epsilon is a finite B-labeled digraph together with a good
vertex set V0 such that |V0| >= (1 - epsilon) * |V| holds exactly and the
r-neighborhood of every good vertex is isomorphic, as a rooted labeled
digraph, to the radius-r Cayley ball of G.

Builders are provided for the two supported group families: discrete tori
(Z/nZ)^k approximating Z^k, and full Cayley graphs of finite groups, which
approximate themselves perfectly.  Everything a builder produces is
re-checked from scratch by the verifier, which charts every good vertex
in one vectorised label walk (digraph.ball_charts) and keeps the charts
as one read-only array: the transfer instance and the Weiss selection
read their smaller-radius charts as column prefixes of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraph import LabeledDigraph, ball_charts, table_edges
from .errors import AlphabetMismatch, ApproximationTooCoarse, BallMismatch, CardinalityViolation, ResourceLimitError
from .groups import CayleyBall, FiniteByTable, FreeAbelian, GroupModel, cayley_ball
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
    """

    group: GroupModel
    graph: LabeledDigraph
    good_vertices: tuple[int, ...]
    epsilon: Fraction
    radius: int
    ball: CayleyBall
    charts: np.ndarray

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


def torus_graph(group: FreeAbelian, n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> LabeledDigraph:
    """Cayley graph of (Z/nZ)^k labeled by the generators of the given Z^k model.

    Vertex encoding: coordinates (x_0, ..., x_{k-1}) with x_i in [0, n) map
    to sum x_i * n^i.
    """
    if n < 1:
        raise ValueError("torus side length must be at least 1")
    k = group.rank
    total = n**k
    if total > max_vertices:
        raise ResourceLimitError(f"torus with {total} vertices exceeds limit {max_vertices}")
    place = n ** np.arange(k)
    coords = np.arange(total)[:, None] // place % n
    heads = ((coords[:, None, :] + np.array(group.generators)) % n * place).sum(axis=2)
    return LabeledDigraph(total, len(group.generators), table_edges(heads))


def torus_approximation(
    group: FreeAbelian,
    n: int,
    r: int,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> SoficApproximation:
    """Verified approximation of Z^k by the discrete torus (Z/nZ)^k.

    Takes the caller's group model, so the radius-r Cayley ball that a
    plan built on the same model is reused from its cache.  Requires
    n >= 2r + 2: at n = 2r + 1 the ball's vertex set still embeds but a
    wrap-around edge appears between the two extreme layers, which breaks
    two-way edge correspondence (ApproximationTooCoarse otherwise).
    """
    if n < 2 * r + 2:
        raise ApproximationTooCoarse(
            f"torus side {n} cannot support verification radius {r}; need n >= {2 * r + 2}"
        )
    return _verify_all_good(torus_graph(group, n, max_vertices=max_vertices), r, group, max_ball_elements)


def _verify_all_good(graph: LabeledDigraph, r: int, group: GroupModel, max_ball_elements: int) -> SoficApproximation:
    """A builder's graph verified with every vertex good, at tolerance 1/(|V|+1)."""
    epsilon = Fraction(1, graph.vertex_count + 1)
    return verify_approximation(graph, range(graph.vertex_count), epsilon, r, group, max_ball_elements=max_ball_elements)


def finite_cayley_graph(group: FiniteByTable) -> LabeledDigraph:
    """Full Cayley graph of a finite group on all of its elements."""
    heads = group.table[:, list(group.generators)]
    return LabeledDigraph(group.size, len(group.generators), table_edges(heads))


def finite_group_approximation(
    group: FiniteByTable,
    r: int,
    max_ball_elements: int = DEFAULT_MAX_BALL_ELEMENTS,
) -> SoficApproximation:
    """A finite group approximates itself: its full Cayley graph verifies at any radius."""
    return _verify_all_good(finite_cayley_graph(group), r, group, max_ball_elements)
