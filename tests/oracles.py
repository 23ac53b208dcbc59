"""Reference computations and fixtures for the tests.

The references are what tests compare the package's vectorised and
chart-based code against.  None of them runs on a verdict path: each
rebuilds what the package computes another way, by per-edge loops, full
BFS from every vertex, per-vertex walks and dense elimination.

The fixtures build inputs that no CLI command needs: cyclic and
dihedral groups, direct products, S5, random kernels and graph files.
"""

import dataclasses
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import prod
from typing import Optional

import numpy as np

from soficrank.digraph import LabeledDigraph, _check_vertex
from soficrank.exactfield import FpMatrix, rank
from soficrank.groupring import GroupRingKernel, restriction_matrix
from soficrank.limits import MAX_BALL_PRODUCT_CELLS
from soficrank.groups import CayleyBall, FiniteByTable, FreeAbelian, GroupModel, cayley_ball
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


def sparse_by_accumulation(row, col, val, shape, p: int) -> FpMatrix:
    """The dense matrix that coordinate lists stand for: each value added at its place with Python ints, then reduced mod p."""
    want = np.zeros(shape, dtype=object)
    for r, c, v in zip(row, col, val):
        want[r, c] += int(v)
    return FpMatrix((want % p).astype(np.int64), p)


def json_value(x):
    """JSON form of a report value, the reference for exactfield.json_text.

    A Fraction becomes {"num", "den"}, a tuple or list a list, a dataclass
    {field: value}, a dict {key: value}, each value converted in turn;
    anything else is left as is for json to write or refuse.
    """
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, (tuple, list)):
        return [json_value(v) for v in x]
    if isinstance(x, dict):
        return {k: json_value(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: json_value(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


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


def ball_isomorphism(graph: LabeledDigraph, v: int, ball: CayleyBall) -> Optional[tuple[int, ...]]:
    """Rooted labeled-digraph isomorphism from a Cayley ball into the graph.

    Returns the unique map f (as a tuple indexed by ball element position,
    f[0] = v) such that f respects every labeled edge of the ball, is
    injective, is onto the r-th out-neighborhood of v, and introduces no
    extra edges among image vertices.  Returns None when no such map
    exists.  Determinism of labels makes the candidate map unique, so the
    result is reproducible, and the chart for a smaller ball of the same
    group is a prefix of this one.

    Onto needs no separate check: a ball element at depth < r has all of
    its out-edges inside the ball, so once every ball edge is matched, each
    graph edge leaving the image of such an element lands in the image,
    and the image is all of N_r(v).
    """
    _check_vertex(graph, v)
    bgraph = ball.graph
    if bgraph.num_labels != graph.num_labels:
        raise ValueError(
            f"label alphabet mismatch: ball has {bgraph.num_labels} labels, graph has {graph.num_labels}"
        )
    m = bgraph.vertex_count
    ball_out = bgraph.out.tolist()
    rows = []  # rows[i] is the out-row of f[i] in the graph

    f = [-1] * m
    f[0] = v
    image = {v}
    # Ball elements are BFS-ordered from the root, so each element's image
    # is fixed before its own out-edges are walked.
    for i in range(m):
        src = f[i]
        if src == -1:
            return None
        rows.append(graph.out[src].tolist())
        for label, j in enumerate(ball_out[i]):
            if j == -1:
                continue
            w = rows[i][label]
            if w == -1:
                return None
            if f[j] != -1:
                if f[j] != w:
                    return None
            else:
                if w in image:
                    return None  # not injective
                f[j] = w
                image.add(w)

    # No extra edges among image vertices (the inverse map must also send
    # edges to edges).
    for i in range(m):
        for label, j in enumerate(ball_out[i]):
            if j == -1 and rows[i][label] in image:
                return None
    return tuple(f)


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


def kernel_radius_scan(c: GroupRingKernel, max_n: int) -> Optional[int]:
    """kernel_radius with no complete radius: one elimination at max_n, then every n from 1 up."""
    rs = c.support_radius()

    def has_kernel(n: int) -> bool:
        m = restriction_matrix(c, n, n + rs)
        return rank(m) < m.cols

    if not has_kernel(max_n):
        return None
    return next(n for n in range(1, max_n + 1) if has_kernel(n))


def laurent_det(c: GroupRingKernel) -> dict:
    """Determinant of c over F_p[Z^k] as {exponent: nonzero coefficient}, by the Leibniz sum over permutations.

    Entry (i, j) of c is the Laurent polynomial sum_s c(s)[i, j] t^s.
    """
    d, p = c.d, c.p
    entry = [[{s: int(m[i, j]) for s, m in zip(c.support, c.coeffs) if m[i, j]} for j in range(d)] for i in range(d)]

    def times(f: dict, g: dict) -> dict:
        out: dict = {}
        for a, x in f.items():
            for b, y in g.items():
                e = tuple(map(sum, zip(a, b)))
                out[e] = (out.get(e, 0) + x * y) % p
        return out

    det: dict = {}
    for perm in permutations(range(d)):
        sign = prod(-1 for i in range(d) for j in range(i) if perm[j] > perm[i])
        term = {(0,) * c.group.rank: sign % p}
        for i in range(d):
            term = times(term, entry[i][perm[i]])
        for e, x in term.items():
            det[e] = (det.get(e, 0) + x) % p
    return {e: x for e, x in det.items() if x}


def equivariant_entry(c: GroupRingKernel, g2, g1) -> FpMatrix:
    """Entry of the full equivariant matrix at row g2, column g1.

    Equals c(g1^{-1} * g2); the zero matrix when that element is outside
    the support.
    """
    group = c.group
    group.check_element(g2)
    group.check_element(g1)
    key = group.multiply(group.inverse(g1), g2)
    if key not in c.support:
        return FpMatrix.zeros(c.d, c.d, c.p)
    return FpMatrix(c.coeffs[c.support.index(key)], c.p)


def restriction_by_products(c: GroupRingKernel, dom, cod) -> FpMatrix:
    """restriction_matrix by the per-pair loop: block c(s) at row g1 * s, column g1, for every g1 and s.

    Each product comes from the group's checked multiply and is looked up
    among the codomain's elements.
    """
    d = c.d
    out = np.zeros((d * cod.size, d * dom.size), dtype=np.int64)
    for j, g1 in enumerate(dom.elements):
        for s, mat in zip(c.support, c.coeffs):
            i = cod.element_index[c.group.multiply(g1, s)]
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = mat
    return FpMatrix(out, c.p)


def ball_by_sorting(group: GroupModel, r: int) -> CayleyBall:
    """The radius-r Cayley ball with no BFS: every element of word length <= r, sorted.

    The candidates are the box [-r, r]^k for Z^k and the whole group when
    finite; the elements are sorted by (word length, element).  out[i, l]
    is the position of elements[i] * generators[l], or -1.  Element j > 0
    has as parent and via the first (i, l) in ascending order with
    out[i, l] == j, and layers counts the elements of each word length.
    """
    if isinstance(group, FreeAbelian):
        candidates = product(range(-r, r + 1), repeat=group.rank)
    else:
        candidates = range(group.size)
    elements = sorted((g for g in candidates if group.word_length(g) <= r), key=lambda g: (group.word_length(g), g))
    position = {g: i for i, g in enumerate(elements)}
    out = np.array(
        [[position.get(group.multiply(g, b), -1) for b in group.generators] for g in elements], dtype=np.int64
    ).reshape(len(elements), len(group.generators))
    parent = np.zeros(len(elements), dtype=np.int64)
    via = np.zeros(len(elements), dtype=np.int64)
    reached = {0}
    for (i, label), j in np.ndenumerate(out):
        if j >= 0 and j not in reached:
            reached.add(int(j))
            parent[j], via[j] = i, label
    counts = Counter(group.word_length(g) for g in elements)
    layers = np.array([0, *accumulate(counts[n] for n in range(len(counts)))], dtype=np.int64)
    edges = [(i, j, label) for (i, label), j in np.ndenumerate(out) if j >= 0]
    return CayleyBall(
        radius=r,
        elements=tuple(elements),
        graph=LabeledDigraph(len(elements), len(group.generators), edges),
        parent=parent,
        via=via,
        layers=layers,
    )


def ball_by_products(group: GroupModel, r: int) -> CayleyBall:
    """The radius-r Cayley ball by a breadth-first closure of {identity}, one product at a time.

    Each element's |B| products come from the group's _mul.  The first
    (element, label) in ball order that reaches a new element is its tree
    edge, and each new layer is sorted before it is placed.  It needs no
    enumeration of a box, so it reaches high ranks; it checks no limit.
    """
    gens = group.generators
    elements = [group.identity()]
    index = {elements[0]: 0}
    parent, via = [0], [0]
    layers = [0, 1]
    start = 0  # the first element of the last layer
    for _ in range(r):
        found = {}  # new element -> its first product's position, (row - start) * |B| + label
        for pos, h in enumerate(group._mul(g, b) for g in elements[start:] for b in gens):
            if h not in index and h not in found:
                found[h] = pos
        for h in sorted(found):
            row, label = divmod(found[h], len(gens))
            parent.append(start + row)
            via.append(label)
            index[h] = len(elements)
            elements.append(h)
        start = layers[-1]
        if not found:
            break
        layers.append(len(elements))
    out = np.array([[index.get(group._mul(g, b), -1) for b in gens] for g in elements], dtype=np.int64)
    return CayleyBall(
        radius=r,
        elements=tuple(elements),
        graph=LabeledDigraph.from_table(out.reshape(len(elements), len(gens))),
        parent=np.array(parent, dtype=np.int64),
        via=np.array(via, dtype=np.int64),
        layers=np.array(layers, dtype=np.int64),
    )


def limit_error_by_depths(group: GroupModel, r: int, max_elements: int) -> Optional[str]:
    """The message of the limit a ball build refuses at, by checking every depth 1..r in turn, or None.

    Each depth at which the ball still grows is checked on the model's
    ball sizes: the element limit first, then the product cells,
    |ball| * |B| * coordinates.
    """
    cells = group.label_count * np.size(group.identity())
    for depth in range(1, r + 1):
        size = group.ball_size(depth)
        if size == group.ball_size(depth - 1):
            return None
        if size > max_elements:
            return f"Cayley ball of {group.describe()} at radius {r} exceeds {max_elements} elements"
        if size * cells > MAX_BALL_PRODUCT_CELLS:
            return f"Cayley ball of {group.describe()} at radius {r} exceeds {MAX_BALL_PRODUCT_CELLS} product cells"
    return None


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


def dihedral_group(m: int) -> FiniteByTable:
    """The dihedral group of order 2m, m >= 3: index k + m*f is r^k s^f, generated by r, r^-1 and s."""
    a = np.arange(2 * m)
    k, f = a % m, a // m
    # r^k1 s^f1 r^k2 s^f2 = r^(k1 + (-1)^f1 k2) s^(f1 + f2)
    table = (k[:, None] + np.where(f[:, None] == 1, -k, k)) % m + m * (f[:, None] ^ f)
    return FiniteByTable(table, [1, m - 1, m], name=f"D{2 * m}")


def cyclic_group(n: int) -> FiniteByTable:
    """Z/nZ with generators {1, n-1} (just {1} when n <= 2; empty when n == 1)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    a = np.arange(n)
    table = (a[:, None] + a) % n
    if n == 1:
        gens = []
    elif n == 2:
        gens = [1]
    else:
        gens = [1, n - 1]
    return FiniteByTable(table, gens, name=f"cyclic-{n}")


def direct_product_table(g1: FiniteByTable, g2: FiniteByTable) -> FiniteByTable:
    """Direct product with element (a, b) encoded as a * |G2| + b.

    Generators: pairs (g, e) and (e, h) for the factors' generators.
    """
    n1, n2 = g1.size, g2.size
    # [a1, b1, a2, b2] holds (a1 a2, b1 b2), encoded
    table = g1.table[:, None, :, None] * n2 + g2.table[None, :, None, :]
    e1, e2 = g1.identity(), g2.identity()
    gens = [g * n2 + e2 for g in g1.generators] + [e1 * n2 + h for h in g2.generators]
    # Deduplicate while preserving order (identity generators can coincide).
    uniq = list(dict.fromkeys(gens))
    return FiniteByTable(table.reshape(n1 * n2, n1 * n2), uniq, name=f"{g1.name}x{g2.name}")


def random_kernel(
    rng: random.Random,
    group: GroupModel,
    d: int,
    p: int,
    radius: int,
    max_terms: int,
) -> GroupRingKernel:
    """Uniform small random kernel with support radius at most `radius`."""
    support: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        g = group.random_element(rng, radius)
        mat = np.array(
            [[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64
        )
        if g in support:
            support[g] = (support[g] + mat) % p
        else:
            support[g] = mat
    return GroupRingKernel(group, d, p, support)


def write_graph_file(path, graph: LabeledDigraph) -> None:
    """Write the text format: header `digraph |V| |B|`, one `src dst label` line per edge."""
    lines = [f"digraph {graph.vertex_count} {graph.num_labels}"]
    lines.extend(f"{s} {d} {l}" for s, d, l in graph.edges())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
