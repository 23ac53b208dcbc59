"""Finite label-deterministic digraphs.

Every graph here carries labels 0..L-1 and satisfies: at most one outgoing
and at most one incoming edge per (vertex, label).  Each label therefore
acts as a partial injection on vertices, which turns rooted ball
isomorphism into a deterministic label walk instead of a search.
The constructor rejects graphs violating determinism.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, TYPE_CHECKING

import numpy as np

from .errors import AlphabetMismatch, ParseError, ResourceLimitError
from .limits import DEFAULT_MAX_VERTICES

if TYPE_CHECKING:  # pragma: no cover
    from .groups import CayleyBall


class LabeledDigraph:
    """Finite digraph with deterministic per-label edges, kept as one out-table.

    out is a read-only int64 array of shape (|V|, |B|): out[v, label] is
    the head of the edge leaving v with that label, or -1 when there is
    none.  Every walk reads this table; there is no in-table.
    """

    __slots__ = ("vertex_count", "num_labels", "out", "edge_count")

    def __init__(self, vertex_count: int, num_labels: int, edges):
        """Build from (src, dst, label) triples, rejecting the first bad one.

        Edges are taken in order: a repeated line counts once, and the
        ValueError names the first edge with an out-of-range vertex or
        label, or the first that gives a (vertex, label) a second
        outgoing or incoming edge.
        """
        src, dst, label = _checked_edges(vertex_count, num_labels, edges)
        self.vertex_count = vertex_count
        self.num_labels = num_labels
        out = np.full((vertex_count, num_labels), -1, dtype=np.int64)
        out[src, label] = dst
        out.flags.writeable = False
        self.out = out
        self.edge_count = int(np.count_nonzero(out >= 0))

    def induced_prefix(self, m: int) -> "LabeledDigraph":
        """The subgraph induced on vertices 0..m-1: the first m rows, heads >= m dropped.

        It keeps this graph's edges among those vertices, so it is
        deterministic as well and skips the constructor's checks.
        """
        sub = object.__new__(LabeledDigraph)
        sub.vertex_count, sub.num_labels = m, self.num_labels
        out = self.out[:m]
        sub.out = np.where(out < m, out, -1)
        sub.out.flags.writeable = False
        sub.edge_count = int(np.count_nonzero(sub.out >= 0))
        return sub

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges in ascending (src, label) order."""
        return map(tuple, table_edges(self.out).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDigraph):
            return NotImplemented
        return np.array_equal(self.out, other.out)

    def __repr__(self) -> str:
        return f"LabeledDigraph(|V|={self.vertex_count}, |B|={self.num_labels}, edges={self.edge_count})"


def _checked_edges(vertex_count: int, num_labels: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The src, dst and label columns of an edge list, or ValueError on its first bad edge.

    These are all of LabeledDigraph's checks; none allocates the out-table.
    """
    if vertex_count < 0 or num_labels < 0:
        raise ValueError("vertex and label counts must be nonnegative")
    listed = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        e = np.array(listed, dtype=np.int64)
    except OverflowError:  # out of range as well; compare as Python ints
        e = np.array(listed, dtype=object)
    e = e.reshape(-1, 3) if e.size == 0 else e
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("edges must be (src, dst, label) triples")
    in_range = ((e >= 0) & (e < np.array([vertex_count, vertex_count, num_labels]))).all(axis=1)
    first_bad = int(np.argmin(in_range)) if not in_range.all() else len(e)
    src, dst, label = e[:first_bad].astype(np.int64).T
    # Before the first bad edge, all edges with one (src, label) share
    # the dst of the first of them, and all with one (dst, label) its src.
    out_clash = dst != dst[_first_of(src * num_labels + label)]
    in_clash = src != src[_first_of(dst * num_labels + label)]
    clashes = np.flatnonzero(out_clash | in_clash)
    first_bad = int(clashes[0]) if clashes.size else first_bad
    if first_bad < len(e):
        s, d, l = e[first_bad].tolist()
        if first_bad < len(src):
            v, way = (s, "outgoing") if out_clash[first_bad] else (d, "incoming")
            raise ValueError(f"vertex {v} has two {way} edges labeled {l}")
        what = "label" if 0 <= s < vertex_count and 0 <= d < vertex_count else "vertex"
        raise ValueError(f"edge ({s},{d},{l}) has an out-of-range {what}")
    return src, dst, label


def _first_of(keys: np.ndarray) -> np.ndarray:
    """For each position, the position of the first equal key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def table_edges(out: np.ndarray) -> np.ndarray:
    """The (src, dst, label) rows of an out-table, ascending by (src, label)."""
    src, label = np.nonzero(out >= 0)
    return np.column_stack([src, out[src, label], label])


def _check_vertex(graph: LabeledDigraph, v: int) -> None:
    if not (0 <= v < graph.vertex_count):
        raise ValueError(f"vertex {v} out of range [0, {graph.vertex_count})")


def distances(graph: LabeledDigraph, v: int, radius: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """(vertex, directed distance from v) within `radius` (all reachable when None), lazily.

    The single graph BFS: pairs come in BFS order, so depths never
    decrease and a caller may stop at the first vertex it looks for.
    `distance`, `neighborhood` and the Weiss separation check read it.
    """
    _check_vertex(graph, v)
    if radius is not None and radius < 0:
        raise ValueError("neighborhood radius must be nonnegative")
    return _bfs(graph.out, v, math.inf if radius is None else radius)


def _bfs(out: np.ndarray, v: int, radius) -> Iterator[tuple[int, int]]:
    yield v, 0
    seen = {v}
    frontier = [v]
    depth = 0
    while frontier and depth < radius:
        depth += 1
        nxt = []
        for u in frontier:
            for t in out[u].tolist():
                if t >= 0 and t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    yield t, depth
        frontier = nxt


def distance(graph: LabeledDigraph, v: int, w: int):
    """Directed distance: edges on a shortest directed path, or math.inf."""
    _check_vertex(graph, w)
    return next((d for u, d in distances(graph, v) if u == w), math.inf)


def neighborhood(graph: LabeledDigraph, v: int, n: int) -> tuple[int, ...]:
    """Vertices at directed distance <= n from v, sorted ascending."""
    return tuple(sorted(u for u, _ in distances(graph, v, n)))


def ball_isomorphism(graph: LabeledDigraph, v: int, ball: "CayleyBall") -> Optional[tuple[int, ...]]:
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


def label_walk(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> np.ndarray:
    """Where each ball element lands when its path from the root is walked from each vertex.

    Returns an int64 array of shape (len(vertices), |ball|): row k, column
    j is the end of the walk from vertices[k] along the labels of ball
    element j's BFS-tree path.  A missing edge leaves -1 in the row; the
    steps below it read the table's last row and carry no meaning, so a
    caller must reject the whole row.  The array is the transpose of
    _walk's, which is laid out one ball element per row.
    """
    return _walk(graph, vertices, ball).T


def _walk(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> np.ndarray:
    """label_walk in the (|ball|, len(vertices)) layout, one depth layer at a time.

    Each layer's elements are one contiguous block of rows, filled from
    their parents' rows through the flat out-table; temporaries stay
    O(len(vertices) * |ball|).
    """
    bgraph = ball.graph
    if bgraph.num_labels != graph.num_labels:
        raise ValueError(
            f"label alphabet mismatch: ball has {bgraph.num_labels} labels, graph has {graph.num_labels}"
        )
    vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
    outside = vertices[(vertices < 0) | (vertices >= graph.vertex_count)]
    if outside.size:
        _check_vertex(graph, int(outside[0]))
    labels, out = graph.num_labels, graph.out.ravel()
    parent, via, layers = ball.parent, ball.via, ball.layers.tolist()
    walk = np.empty((bgraph.vertex_count, len(vertices)), dtype=np.int64)
    walk[0] = vertices
    for lo, hi in zip(layers[1:-1], layers[2:]):
        step = walk[parent[lo:hi]]
        step *= labels
        step += via[lo:hi, None]
        np.take(out, step, out=walk[lo:hi], mode="wrap")
    return walk


def ball_charts(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> tuple[np.ndarray, np.ndarray]:
    """The charts of many vertices at once: one label walk over the ball.

    Returns (charts, ok): charts is label_walk(graph, vertices, ball), and
    whenever ok[k] holds, row k is the tuple ball_isomorphism(graph,
    vertices[k], ball) returns; rows with ok[k] false carry no meaning.
    A walked row is a chart exactly when it holds no -1, it is injective,
    every ball edge maps to a graph edge, and no graph edge on a label the
    ball lacks at an element lands back in the row's image: the conditions
    ball_isomorphism checks one vertex at a time.

    The walk matches every BFS-tree edge by construction, so only the
    other ball edges are compared.  An extra edge on label l can only land
    on the image of an element with no incoming l-edge in the ball: the
    graph has at most one incoming l-edge per vertex, a matched ball edge
    already supplies that edge to the image of every other element, and
    the row is injective.  So each label's leaving edges are looked up
    only among the images of those boundary elements.
    """
    walk = _walk(graph, vertices, ball)  # [j, k]
    bgraph, n = ball.graph, graph.vertex_count
    ok = np.ones(walk.shape[1], dtype=bool)
    # tree[i, l]: the walk reached the head of i's l-edge along that edge
    tree = np.zeros(bgraph.out.shape, dtype=bool)
    reached = bgraph.out[ball.parent[1:], ball.via[1:]] == np.arange(1, bgraph.vertex_count)
    tree[ball.parent[1:][reached], ball.via[1:][reached]] = True
    # Vertex k's boundary images are offset by k*(n+1) so that, flattened,
    # all vertices' images sort together and stay apart (images lie in [-1, n)).
    offset = np.arange(walk.shape[1], dtype=np.int64)[:, None] * (n + 1)
    for label, heads in enumerate(np.ascontiguousarray(graph.out.T)):
        target = bgraph.out[:, label]
        checked = np.flatnonzero((target >= 0) & ~tree[:, label])
        step = walk[checked]
        np.take(heads, step, out=step, mode="wrap")
        ok &= (step == walk[target[checked]]).all(axis=0)
        no_in = np.ones(bgraph.vertex_count, dtype=bool)
        no_in[target[target >= 0]] = False
        sources, sinks = np.flatnonzero(target < 0), np.flatnonzero(no_in)
        if sources.size and sinks.size and ok.size:
            image = (np.sort(walk[sinks], axis=0).T + offset).ravel()
            key = heads[walk[sources]].T + offset
            hit = image[np.minimum(np.searchsorted(image, key), image.size - 1)] == key
            ok &= ~hit.any(axis=1)
    charts = np.ascontiguousarray(walk.T)
    del walk  # before the sort, to keep the peak at two walk-sized arrays
    ordered = np.sort(charts, axis=1)
    ok &= ~((ordered[:, 0] < 0) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    return charts, ok


def read_graph_file(
    path, max_vertices: int = DEFAULT_MAX_VERTICES, num_labels: Optional[int] = None
) -> LabeledDigraph:
    """Parse the graph text format; full-line # comments and blank lines are skipped.

    A header claiming more than max_vertices vertices raises
    ResourceLimitError before the out-table is allocated.  When num_labels
    is given and the header declares another label count, the edges are
    still parsed and checked against the header, and AlphabetMismatch,
    carrying the header's vertex_count and num_labels, is raised instead
    of allocating the out-table.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "digraph":
        raise ParseError(f"{path}: expected header 'digraph |V| |B|', got {lines[0]!r}")
    try:
        n, labels = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"{path}: non-integer counts in header {lines[0]!r}")
    if n > max_vertices:
        raise ResourceLimitError(f"{path}: graph with {n} vertices exceeds limit {max_vertices}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"{path}: expected 'src dst label', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParseError(f"{path}: non-integer edge fields in {ln!r}")
    try:
        if num_labels is not None and labels != num_labels:
            _checked_edges(n, labels, edges)
            raise AlphabetMismatch(
                f"{path}: graph has {labels} labels, not {num_labels}", vertex_count=n, num_labels=labels
            )
        return LabeledDigraph(n, labels, edges)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
