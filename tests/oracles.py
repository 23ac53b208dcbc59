"""Dense reference computations that tests compare the package's chart-based checks against.

None of these runs on a verdict path: each rebuilds what the package now
reads off the verified charts, by per-vertex walks and dense elimination.
"""

from typing import Optional

import numpy as np

from soficrank.digraph import ball_isomorphism
from soficrank.exactfield import FpMatrix, rank
from soficrank.groups import cayley_ball
from soficrank.transfer import TransferInstance, build_bar_phi


def slice_ranks(inst: TransferInstance, v1) -> tuple[int, ...]:
    """Rank of bar_phi's column slice over the r0-neighborhood of each v in v1, by elimination.

    The slice at v takes the columns of the vertices in v's r0-chart and
    every row of the dense bar_phi.
    """
    bar_phi = build_bar_phi(inst)
    d = inst.d
    col_of = {u: j for j, u in enumerate(inst.v_prime)}
    ranks = []
    for v in v1:
        cols = [col_of[u] * d + k for u in inst.charts[col_of[v]].tolist() for k in range(d)]
        ranks.append(rank(FpMatrix(bar_phi.array[:, cols], bar_phi.p, _normalized=True)))
    return tuple(ranks)


def commutative_square_matrix(inst: TransferInstance, v: int) -> Optional[FpMatrix]:
    """Submatrix of bar_phi at v, pulled back through the ball charts.

    Takes the columns of the r0-neighborhood of v and the rows of its
    2*r0-neighborhood, reindexed by the rooted isomorphism at radius 2*r0.
    When v carries such an isomorphism the result equals
    restriction_matrix(phi, r0-ball, 2*r0-ball) entry for entry; returns
    None when v has no radius-2*r0 chart.
    """
    ball_small = inst.ball_r0
    ball_large = cayley_ball(inst.phi.group, 2 * inst.plan.r0)
    f = ball_isomorphism(inst.approx.graph, v, ball_large)
    if f is None:
        return None
    bar_phi = build_bar_phi(inst)
    d = inst.d
    col_of = {u: j for j, u in enumerate(inst.v_prime)}
    # Smaller balls are prefixes of larger ones, so position i in the small
    # ball is position i in the large one.
    cols = [col_of[f[i]] * d + k for i in range(ball_small.size) for k in range(d)]
    rows = [f[i] * d + k for i in range(ball_large.size) for k in range(d)]
    sub = bar_phi.array[np.ix_(rows, cols)]
    return FpMatrix(sub, bar_phi.p, _normalized=True)
