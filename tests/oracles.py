"""Reference computations that tests compare the package's vectorised and chart-based code against.

None of these runs on a verdict path: each rebuilds what the package
computes another way, by per-edge loops, full BFS from every vertex,
per-vertex walks and dense elimination.
"""

from collections import deque
from itertools import permutations
from typing import Optional

import numpy as np

from soficrank.digraph import ball_isomorphism
from soficrank.exactfield import FpMatrix
from soficrank.groupring import GroupRingKernel
from soficrank.groups import FiniteByTable, FreeAbelian, cayley_ball
from soficrank.transfer import TransferInstance, build_bar_phi


def dense_rank(m: FpMatrix) -> int:
    """Rank by dense Gaussian elimination mod p, one column at a time, pivoting on the first nonzero row."""
    a, p = m.array.copy(), m.p
    r = 0
    for c in range(m.cols):
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


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
        ranks.append(dense_rank(FpMatrix(bar_phi.array[:, cols], bar_phi.p)))
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
    return FpMatrix(sub, bar_phi.p)


def equivariant_entry(c: GroupRingKernel, g2, g1) -> FpMatrix:
    """Entry of the full equivariant matrix at row g2, column g1.

    Equals c(g1^{-1} * g2); the zero matrix when that element is outside
    the support.
    """
    group = c.group
    group.check_element(g2)
    group.check_element(g1)
    key = group.multiply(group.inverse(g1), g2)
    mat = c.support.get(key)
    if mat is None:
        return FpMatrix.zeros(c.d, c.d, c.p)
    return mat


def restriction_by_products(c: GroupRingKernel, dom, cod) -> FpMatrix:
    """restriction_matrix by the per-pair loop: block c(s) at row g1 * s, column g1, for every g1 and s.

    Each product comes from the group's checked multiply and is looked up
    among the codomain's elements.
    """
    d = c.d
    out = np.zeros((d * cod.size, d * dom.size), dtype=np.int64)
    for j, g1 in enumerate(dom.elements):
        for s, mat in c.support.items():
            i = cod.element_index[c.group.multiply(g1, s)]
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = mat.array
    return FpMatrix(out, c.p)


def quotient_table_by_loop(group, side: Optional[int] = None) -> np.ndarray:
    """Out-table of the group's finite quotient, one vertex and generator at a time.

    Z^k: vertex v has coordinates x_i = v // side^i % side, and generator g
    sends it to the vertex of the coordinates (x + g) mod side.  A finite
    group: vertex a goes to a * g, read from its table.
    """
    if isinstance(group, FreeAbelian):
        size = side**group.rank
        place = [side**i for i in range(group.rank)]

        def step(v, g):
            return sum((v // w % side + gi) % side * w for w, gi in zip(place, g))
    else:
        size = group.size

        def step(a, g):
            return group.multiply(a, g)
    out = np.empty((size, len(group.generators)), dtype=np.int64)
    for v in range(size):
        for j, g in enumerate(group.generators):
            out[v, j] = step(v, g)
    return out


def digraph_by_edge_loop(vertex_count: int, num_labels: int, edges) -> tuple[list, int]:
    """(edges ascending by (src, label), edge count) of a label-deterministic digraph, one edge at a time.

    The per-edge loop LabeledDigraph's constructor used to run, with its
    ValueError messages: a repeated line counts once, and the first edge
    that is out of range or gives a (vertex, label) a second outgoing or
    incoming edge is named.
    """
    if vertex_count < 0 or num_labels < 0:
        raise ValueError("vertex and label counts must be nonnegative")
    out = [[-1] * num_labels for _ in range(vertex_count)]
    into = [[-1] * num_labels for _ in range(vertex_count)]
    count = 0
    for src, dst, label in edges:
        if not (0 <= src < vertex_count and 0 <= dst < vertex_count):
            raise ValueError(f"edge ({src},{dst},{label}) has an out-of-range vertex")
        if not (0 <= label < num_labels):
            raise ValueError(f"edge ({src},{dst},{label}) has an out-of-range label")
        if out[src][label] != -1:
            if out[src][label] == dst:
                continue  # duplicate edge line, idempotent
            raise ValueError(f"vertex {src} has two outgoing edges labeled {label}")
        if into[dst][label] != -1:
            raise ValueError(f"vertex {dst} has two incoming edges labeled {label}")
        out[src][label] = dst
        into[dst][label] = src
        count += 1
    listed = [(v, w, label) for v, row in enumerate(out) for label, w in enumerate(row) if w != -1]
    return listed, count


def min_pairwise_distance(graph, vertices) -> Optional[int]:
    """Least directed distance between two distinct given vertices, by a full BFS from each; None if none reaches another."""
    succ = [[] for _ in range(graph.vertex_count)]
    for s, d, _ in graph.edges():
        succ[s].append(d)
    targets = set(vertices)
    best = None
    for u in targets:
        depth = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in succ[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    queue.append(y)
        for w in targets - {u}:
            if w in depth and (best is None or depth[w] < best):
                best = depth[w]
    return best


def symmetric_group_5() -> FiniteByTable:
    """S5 on its 120 permutations in lexicographic order, generated by (0 1), (0 1 2 3 4) and its inverse."""
    perms = sorted(permutations(range(5)))
    index = {perm: i for i, perm in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(5))] for b in perms] for a in perms]
    gens = [index[(1, 0, 2, 3, 4)], index[(1, 2, 3, 4, 0)], index[(4, 0, 1, 2, 3)]]
    return FiniteByTable(table, gens, name="S5")
