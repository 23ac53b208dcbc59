"""Finite label-deterministic digraphs.

Every graph here carries labels 0..L-1 and satisfies: at most one outgoing
and at most one incoming edge per (vertex, label).  Each label therefore
acts as a partial injection on vertices, which turns rooted ball
isomorphism into a deterministic label walk instead of a search.
The constructor rejects graphs violating determinism.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, Optional, TYPE_CHECKING

import numpy as np

from .errors import AlphabetMismatch, ParseError, ResourceLimitError, content_lines, read_utf8
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
        out = np.full((vertex_count, num_labels), -1, dtype=np.int64)
        out[src, label] = dst
        self._adopt(out)

    @classmethod
    def from_table(cls, out) -> "LabeledDigraph":
        """Build from a builder's (|V|, |B|) out-table, -1 for no edge, with checks in O(|V||B|).

        The table is copied.  An entry outside [-1, |V|), or a head repeated
        within a label column, raises the ValueError that the edge-list
        constructor raises on table_edges(out): the first bad edge in
        (src, label) order.
        """
        out = np.array(out, dtype=np.int64)
        vertex_count, num_labels = out.shape
        if out.size and (out.min() < -1 or out.max() >= vertex_count or _repeats_a_head(out)):
            _checked_edges(vertex_count, num_labels, table_edges(out))
            raise ValueError("out-table entries must be vertices or -1")  # an entry below -1
        graph = object.__new__(cls)
        graph._adopt(out)
        return graph

    def induced_prefix(self, m: int) -> "LabeledDigraph":
        """The subgraph induced on vertices 0..m-1: the first m rows, heads >= m dropped.

        It keeps this graph's edges among those vertices, so it is
        deterministic as well and skips the constructor's checks.
        """
        sub = object.__new__(LabeledDigraph)
        out = self.out[:m]
        sub._adopt(np.where(out < m, out, -1))
        return sub

    def _adopt(self, out: np.ndarray) -> None:
        """Take a checked int64 out-table, which nothing else holds, as this graph's read-only table."""
        out.flags.writeable = False
        self.out = out
        self.vertex_count, self.num_labels = out.shape
        self.edge_count = int(np.count_nonzero(out >= 0))

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


def _repeats_a_head(out: np.ndarray) -> bool:
    """Whether some head appears twice in one label column of an out-table with entries in [-1, |V|)."""
    labels = out.shape[1]
    # (head + 1) * |B| + label is a distinct key per (head, label); -1 heads take keys below |B|
    counts = np.bincount(((out + 1) * labels + np.arange(labels)).ravel())
    return bool(counts[labels:].max(initial=0) > 1)


def _first_of(keys: np.ndarray) -> np.ndarray:
    """For each position, the position of the first equal key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def table_edges(out: np.ndarray) -> np.ndarray:
    """The (src, dst, label) rows of an out-table, ascending by (src, label)."""
    src, label = np.nonzero(out >= 0)
    return np.column_stack([src, out[src, label], label])


def integer_list(values, what: str = "vertex") -> list[int]:
    """The values as Python ints by operator.index, in order; ValueError names the first that is not one, never rounded or parsed."""
    values = values if isinstance(values, (list, tuple, range)) else list(values)
    try:
        return list(map(operator.index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise ValueError(f"{what} {bad!r} is not an integer") from None


def _check_vertex(graph: LabeledDigraph, v: int) -> int:
    """v as a Python int, once it is an integer (by operator.index) in range."""
    [v] = integer_list([v])
    if not (0 <= v < graph.vertex_count):
        raise ValueError(f"vertex {v} out of range [0, {graph.vertex_count})")
    return v


def distances(graph: LabeledDigraph, v: int, radius: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """(vertex, directed distance from v) within `radius` (all reachable when None), lazily.

    The single graph BFS: pairs come in BFS order, so depths never
    decrease and a caller may stop at the first vertex it looks for.
    `distance`, `neighborhood` and the Weiss separation fallback read it.
    """
    v = _check_vertex(graph, v)
    [radius] = [math.inf] if radius is None else integer_list([radius], "radius")
    if radius < 0:
        raise ValueError("neighborhood radius must be nonnegative")
    return _bfs(graph.out, v, radius)


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
    w = _check_vertex(graph, w)
    return next((d for u, d in distances(graph, v) if u == w), math.inf)


def neighborhood(graph: LabeledDigraph, v: int, n: int) -> tuple[int, ...]:
    """Vertices at directed distance <= n from v, sorted ascending."""
    return tuple(sorted(u for u, _ in distances(graph, v, n)))


def ball_isomorphism(graph: LabeledDigraph, v: int, ball: "CayleyBall") -> Optional[tuple[int, ...]]:
    """The chart of v, ball_charts at one vertex: a tuple indexed by ball position, or None."""
    _check_vertex(graph, v)
    charts, ok = ball_charts(graph, [v], ball)
    return tuple(charts[0].tolist()) if ok[0] else None


def label_walk(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> np.ndarray:
    """Where each ball element lands when its path from the root is walked from each vertex.

    Returns an int64 array of shape (len(vertices), |ball|): row k, column
    j is the end of the walk from vertices[k] along the labels of ball
    element j's BFS-tree path.  A missing edge leaves -1 in the row; the
    steps below it read the table's last row and carry no meaning, so a
    caller must reject the whole row.  The array is the transpose of
    _walk's, which is laid out one ball element per row.
    """
    return _walk(graph.out, _checked_vertices(graph, vertices, ball), ball).T


def _checked_vertices(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> np.ndarray:
    """The vertices as an int64 array, an int64 one as it is, after the alphabet check and a check of each: an integer, in range."""
    bgraph = ball.graph
    if bgraph.num_labels != graph.num_labels:
        raise ValueError(
            f"label alphabet mismatch: ball has {bgraph.num_labels} labels, graph has {graph.num_labels}"
        )
    if not (isinstance(vertices, np.ndarray) and vertices.dtype.kind == "i"):
        vertices = np.array(integer_list(vertices), dtype=object)  # Python ints, so none beyond int64 wraps
    outside = vertices[(vertices < 0) | (vertices >= graph.vertex_count)]
    if outside.size:
        _check_vertex(graph, int(outside[0]))
    return vertices.astype(np.int64, copy=False).reshape(-1)


_BLOCK_ENTRIES = 2**16  # walk entries ball_charts holds at once


def _walk_dtype(vertex_count: int, num_labels: int) -> type:
    """The narrowest of int16, int32 and int64 that holds every flat out-table position (< |V||B|) and sort key (<= 2|V|+1).

    Every value the walk and the chart checks compute lies in
    [-|B|, max(|V||B|, 2|V|+1)): a head times |B| plus a label, or twice
    an image or a head plus one, with -1 for a missing edge.
    """
    top = max(vertex_count * num_labels, 2 * vertex_count + 1)
    return np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64


def _walk(out: np.ndarray, vertices: np.ndarray, ball: "CayleyBall") -> np.ndarray:
    """label_walk in the (|ball|, len(vertices)) layout and in the dtype of out, the graph's out-table.

    Each depth layer's elements are one contiguous block of rows, filled
    from their parents' rows through the flat out-table; temporaries stay
    O(len(vertices) * |ball|).
    """
    labels, flat = out.shape[1], out.ravel()
    parent, layers = ball.parent, ball.layers.tolist()
    via = ball.via.astype(out.dtype, copy=False)
    walk = np.empty((len(parent), len(vertices)), dtype=out.dtype)
    walk[0] = vertices
    for lo, hi in zip(layers[1:-1], layers[2:]):
        step = walk[parent[lo:hi]]
        step *= labels
        step += via[lo:hi, None]
        np.take(flat, step, out=walk[lo:hi], mode="wrap")
    return walk


def ball_charts(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> tuple[np.ndarray, np.ndarray]:
    """The charts of many vertices at once: one label walk over the ball.

    Returns (charts, ok): charts is label_walk(graph, vertices, ball) in
    the walk's width (below), and ok[k] holds exactly when row k is the
    chart of vertices[k]: the map f from ball positions to vertices, f[0]
    = vertices[k], that holds no -1, is injective, sends every labeled
    ball edge to a graph edge, and adds no edge, that is, no graph edge on
    a label the ball lacks at an element lands back in the image.  Labels
    are deterministic, so the walk is the only candidate.  A chart is onto
    the r-th out-neighborhood, since every edge leaving the image of an
    element at depth < r is matched, and its prefix over a smaller ball is
    the chart there.  Rows with ok[k] false carry no meaning.

    The walk matches every BFS-tree edge by construction.  One width,
    _walk_dtype's, serves the walk, the charts, the relations and the sort
    keys: int16 while max(|V||B|, 2|V|+1) < 2^15, int32 while it is below
    2^31, and int64 otherwise.  The vertices are charted in blocks of
    _BLOCK_ENTRIES walk entries: each block is walked, checked and
    transposed into the one chart array, and its walk is freed before its
    rows are sorted, so the peak stays near the charts plus one block.

    For a non-tree ball edge (i, l, j), write W_i for the walked images of
    i, P = parent(i) and x = via(i), so that W_i = T_x(W_P) where T_x is
    the graph's x-edge.  Three kinds of edge reduce to a relation at one
    graph vertex u:

    - a self-loop (j = i) holds at a chart exactly when out[u, l] = u at
      u = W_i(v), for any i, the root included;
    - a back edge (i not the root, j = P) holds exactly when
      out[out[u, x], l] = u at u = W_P(v), since W_i = T_x(W_P);
    - a square (i, j not the root, parent(j) = Q with via(j) = x, and
      (P, l, Q) a ball edge) holds, given the edge (P, l, Q), exactly when
      out[out[u, x], l] = out[out[u, l], x] at u = W_P(v), since then
      W_j = T_x(W_Q) = T_x(T_l(W_P)).  The shallower edge (P, l, Q) is
      itself in the conjunction, so by induction on depth the reduced
      conjunction holds exactly when the original one does.

    The element at which a relation is read (i for a self-loop, P
    otherwise) is its anchor.  A relation is evaluated once per graph
    vertex and is gathered back through the anchors' images only when it
    fails somewhere.  Every other non-tree edge is compared chart by chart.

    Each row is then sorted once, as the keys 2w of its images w and 2h+1
    of the heads h (-1 for none) of the graph's edges on every (element,
    label) the ball lacks.  A row fails on a key -2, an image -1; on an
    even key followed by itself, a repeated image; and on an even key
    followed by its successor, a head on an image, that is, an extra edge.
    Two heads may meet outside the image, so odd keys may repeat.  Once the
    other checks pass, a head on label l lands only on the image of an
    element with no incoming l-edge in the ball: if the head on l from f(i)
    lands on f(j) and the ball has an l-edge (k, j), the matched edge gives
    f(i) = f(k), as the graph has at most one incoming l-edge per vertex,
    and injectivity gives i = k, which lacks l.
    """
    vertices = _checked_vertices(graph, vertices, ball)
    out = graph.out.astype(_walk_dtype(graph.vertex_count, graph.num_labels), copy=False)
    relations, (src, label, dst) = _chart_checks(out, ball)
    charts = np.empty((vertices.size, ball.size), dtype=out.dtype)
    ok = np.ones(vertices.size, dtype=bool)
    rows = max(1, _BLOCK_ENTRIES // ball.size)
    for lo in range(0, vertices.size, rows):
        block, fine = slice(lo, lo + rows), ok[lo : lo + rows]
        walk = _walk(out, vertices[block], ball)  # [j, k]
        for holds, anchors in relations:
            fine &= holds[walk[anchors]].all(axis=0)
        heads = walk[src]
        heads *= out.shape[1]
        heads += label
        np.take(out.ravel(), heads, out=heads, mode="wrap")
        fine &= (heads[: dst.size] == walk[dst]).all(axis=0)
        charts[block] = walk.T
        del walk  # before the keys, to keep the peak at the charts and one block
        keys = np.concatenate([charts[block], heads[dst.size :].T], axis=1)
        del heads
        keys *= 2
        keys[:, ball.size :] += 1
        keys.sort(axis=1)
        fine &= keys[:, 0] != -2
        fine &= (keys[:, 1:] > keys[:, :-1] ^ 1).all(axis=1)  # no even key 2w followed by 2w or 2w + 1
    return charts, ok


def _chart_checks(out: np.ndarray, ball: "CayleyBall") -> tuple[list, tuple]:
    """What ball_charts compares in every block: the ball's failing relations and the heads it gathers.

    Returns (relations, (src, label, dst)): a (flags, anchors) pair per
    relation of kind < 3 that fails at some graph vertex, and the (element,
    label) pairs whose heads each chart gathers, first the kind-3 edges,
    whose heads must be the images of dst, then every pair at which the
    ball has no edge, whose heads become the odd sort keys.
    """
    (src, label, dst, anchor, relation), (kind, x, l) = _cycle_relations(ball)
    relations = []
    for rel in np.flatnonzero(kind < 3).tolist():
        holds = _relation_holds(out, kind[rel], x[rel], l[rel])
        if not holds.all():
            relations.append((holds, anchor[relation == rel]))
    rest = kind[relation] == 3
    element, lacked = np.nonzero(ball.graph.out < 0)
    labels = np.concatenate([label[rest], lacked])[:, None].astype(out.dtype)
    return relations, (np.concatenate([src[rest], element]), labels, dst[rest])


def _cycle_relations(ball: "CayleyBall") -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The ball's non-tree edges, each with the graph-vertex relation that checks it (see ball_charts).

    Returns ((src, label, dst, anchor, relation), (kind, x, l)), arrays
    with one entry per non-tree edge and per distinct relation.  Relation
    r is (kind[r], x[r], l[r]): kind 0 is a self-loop on l, 1 the back
    edge out[out[u, x], l] = u, 2 the square out[out[u, x], l] =
    out[out[u, l], x], and one last entry of kind 3 stands for no relation.
    Edge e is checked by relation[e], read at the images of the ball
    element anchor[e].  Within one relation no two edges share an anchor,
    since an anchor and the relation's labels fix the edge.
    """
    bout, parent, via = ball.graph.out.ravel(), ball.parent, ball.via
    labels = ball.graph.num_labels
    tree = np.zeros(bout.size, dtype=bool)
    tree[parent[1:] * labels + via[1:]] = True
    edge = np.flatnonzero((bout >= 0) & ~tree)
    src, label = np.divmod(edge, labels)
    dst = bout[edge]
    up, x = parent[src], via[src]
    loop = dst == src
    back = (dst == up) & (src > 0) & ~loop
    square = (via[dst] == x) & (bout[up * labels + label] == parent[dst]) & (src > 0) & (dst > 0) & ~loop & ~back
    kind = 3 - 3 * loop - 2 * back - square  # the three masks are disjoint
    # a self-loop's relation does not depend on the tree, and kind 3 is one column
    key = (kind * labels + x * (back | square)) * labels + label * (kind < 3)
    keys, relation = np.unique(key, return_inverse=True)
    anchor = np.where(loop, src, up)
    return (src, label, dst, anchor, relation), (keys // labels**2, keys // labels % labels, keys % labels)


def _relation_holds(out: np.ndarray, kind: int, x: int, l: int) -> np.ndarray:
    """One flag per graph vertex u: whether the relation (kind, x, l) of _cycle_relations holds at u.

    A head of -1 indexes the table's last row, as in the walk; a chart
    whose anchor image reaches it holds a -1 and is rejected anyway.
    """
    if kind == 0:
        return out[:, l] == np.arange(len(out))
    if kind == 1:
        return out[out[:, x], l] == np.arange(len(out))
    return out[out[:, x], l] == out[out[:, l], x]


def read_graph_file(
    path, max_vertices: int = DEFAULT_MAX_VERTICES, num_labels: Optional[int] = None, data: Optional[bytes] = None
) -> LabeledDigraph:
    """Parse the graph text format; full-line # comments and blank lines are skipped.

    The text is the file at path, or `data`, its bytes, when the caller has
    read them; an unreadable or non-UTF-8 file raises ParseError.  A header
    claiming more than max_vertices vertices raises ResourceLimitError
    before the out-table is allocated.  When num_labels
    is given and the header declares another label count, the edges are
    still parsed and checked against the header, and AlphabetMismatch,
    carrying the header's vertex_count and num_labels, is raised instead
    of allocating the out-table.
    """
    lines = content_lines(read_utf8(path, data))
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
