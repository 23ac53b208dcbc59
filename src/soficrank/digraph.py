"""Finite label-deterministic digraphs.

Every graph here carries labels 0..L-1 and satisfies: at most one outgoing
and at most one incoming edge per (vertex, label).  Each label therefore
acts as a partial injection on vertices, which turns rooted ball
isomorphism into a deterministic label walk instead of a search.
Constructors reject graphs violating determinism.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, TYPE_CHECKING

import numpy as np

from .errors import ParseError

if TYPE_CHECKING:  # pragma: no cover
    from .groups import CayleyBall


class LabeledDigraph:
    """Finite digraph with deterministic per-label edges."""

    __slots__ = ("vertex_count", "num_labels", "_out", "_in", "_edge_count")

    def __init__(self, vertex_count: int, num_labels: int, edges):
        if vertex_count < 0 or num_labels < 0:
            raise ValueError("vertex and label counts must be nonnegative")
        self.vertex_count = vertex_count
        self.num_labels = num_labels
        self._out = [[-1] * num_labels for _ in range(vertex_count)]
        self._in = [[-1] * num_labels for _ in range(vertex_count)]
        count = 0
        for src, dst, label in edges:
            if not (0 <= src < vertex_count and 0 <= dst < vertex_count):
                raise ValueError(f"edge ({src},{dst},{label}) has an out-of-range vertex")
            if not (0 <= label < num_labels):
                raise ValueError(f"edge ({src},{dst},{label}) has an out-of-range label")
            if self._out[src][label] != -1:
                if self._out[src][label] == dst:
                    continue  # duplicate edge line, idempotent
                raise ValueError(f"vertex {src} has two outgoing edges labeled {label}")
            if self._in[dst][label] != -1:
                raise ValueError(f"vertex {dst} has two incoming edges labeled {label}")
            self._out[src][label] = dst
            self._in[dst][label] = src
            count += 1
        self._edge_count = count

    def out_edge(self, v: int, label: int) -> Optional[int]:
        t = self._out[v][label]
        return None if t == -1 else t

    def in_edge(self, v: int, label: int) -> Optional[int]:
        s = self._in[v][label]
        return None if s == -1 else s

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges in ascending (src, label) order."""
        for v in range(self.vertex_count):
            row = self._out[v]
            for label in range(self.num_labels):
                if row[label] != -1:
                    yield (v, row[label], label)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDigraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.num_labels == other.num_labels
            and self._out == other._out
        )

    def __repr__(self) -> str:
        return f"LabeledDigraph(|V|={self.vertex_count}, |B|={self.num_labels}, edges={self._edge_count})"


def _check_vertex(graph: LabeledDigraph, v: int) -> None:
    if not (0 <= v < graph.vertex_count):
        raise ValueError(f"vertex {v} out of range [0, {graph.vertex_count})")


def distances(graph: LabeledDigraph, v: int, radius: Optional[int] = None) -> dict[int, int]:
    """Directed distance from v to every vertex within `radius` (all reachable when None).

    The single graph BFS: `distance`, `neighborhood` and the Weiss
    separation check all read it.  The dict is in BFS order.
    """
    _check_vertex(graph, v)
    if radius is not None and radius < 0:
        raise ValueError("neighborhood radius must be nonnegative")
    depth = {v: 0}
    frontier = [v]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for u in frontier:
            for t in graph._out[u]:
                if t != -1 and t not in depth:
                    depth[t] = d
                    nxt.append(t)
        frontier = nxt
    return depth


def distance(graph: LabeledDigraph, v: int, w: int):
    """Directed distance: edges on a shortest directed path, or math.inf."""
    _check_vertex(graph, w)
    return distances(graph, v).get(w, math.inf)


def neighborhood(graph: LabeledDigraph, v: int, n: int) -> tuple[int, ...]:
    """Vertices at directed distance <= n from v, sorted ascending."""
    return tuple(sorted(distances(graph, v, n)))


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
    labels = range(graph.num_labels)

    f = [-1] * m
    f[0] = v
    image = {v}
    # Ball elements are BFS-ordered from the root, so each element's image
    # is fixed before its own out-edges are walked.
    for i in range(m):
        src = f[i]
        if src == -1:
            return None
        for label in labels:
            j = bgraph._out[i][label]
            if j == -1:
                continue
            w = graph._out[src][label]
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
        src = f[i]
        for label in labels:
            if bgraph._out[i][label] == -1:
                w = graph._out[src][label]
                if w != -1 and w in image:
                    return None
    return tuple(f)


def ball_charts(graph: LabeledDigraph, vertices, ball: "CayleyBall") -> tuple[np.ndarray, np.ndarray]:
    """The charts of many vertices at once: one numpy label walk over the ball.

    Returns (charts, ok): charts is an int64 array of shape
    (len(vertices), |ball|), and whenever ok[k] holds, row k is the tuple
    ball_isomorphism(graph, vertices[k], ball) returns; rows with ok[k]
    false carry no meaning.  The walk fixes each ball element's image from
    its BFS-tree parent, one depth layer at a time, with a sink row
    standing in for missing edges.  A row is then a chart exactly when it
    avoids the sink, every ball edge maps to a graph edge, it is injective,
    and no graph edge on a label the ball lacks at an element lands back
    in the row's image: the conditions ball_isomorphism checks one vertex
    at a time.  Temporaries stay O(len(vertices) * |ball|).
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
    n, m, labels = graph.vertex_count, bgraph.vertex_count, graph.num_labels
    out = np.full((n + 1, labels), n, dtype=np.int64)  # row n is the sink
    out[:n] = np.array(graph._out, dtype=np.int64).reshape(n, labels)
    out[out == -1] = n
    ball_out = np.array(bgraph._out, dtype=np.int64).reshape(m, labels)

    # BFS tree of the ball: j's parent is the first element, in ball order,
    # with an edge into j; it sits one layer closer to the root.
    edges = np.flatnonzero(ball_out.ravel() >= 0)  # i * labels + label, ascending
    heads, first = np.unique(ball_out.ravel()[edges], return_index=True)
    parent = np.zeros(m, dtype=np.int64)
    via = np.zeros(m, dtype=np.int64)
    parent[heads], via[heads] = np.divmod(edges[first], max(labels, 1))
    depth = np.asarray(ball.distance_from_root)
    f = np.empty((len(vertices), m), dtype=np.int64)
    f[:, 0] = vertices
    for layer in range(1, int(depth[-1]) + 1):
        js = np.flatnonzero(depth == layer)
        f[:, js] = out[f[:, parent[js]], via[js]]

    ordered = np.sort(f, axis=1)
    ok = ~((ordered[:, -1] == n) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    # Membership in a row's image, for all rows at once: offset row k's
    # sorted image by k*(n+1) so that the flattened array is sorted.
    offset = np.arange(len(vertices), dtype=np.int64)[:, None] * (n + 1)
    ordered += offset
    image = ordered.ravel()
    for label in range(labels):
        w = out[f, label]
        target = ball_out[:, label]
        edge = target >= 0
        ok &= ((w == f[:, np.maximum(target, 0)]) | ~edge).all(axis=1)
        if image.size and not edge.all():
            key = w[:, ~edge] + offset
            hit = image[np.minimum(np.searchsorted(image, key), image.size - 1)] == key
            ok &= ~hit.any(axis=1)
    return f, ok


def write_graph_file(path, graph: LabeledDigraph) -> None:
    """Write the text format: header `digraph |V| |B|`, one `src dst label` line per edge."""
    lines = [f"digraph {graph.vertex_count} {graph.num_labels}"]
    lines.extend(f"{s} {d} {l}" for s, d, l in graph.edges())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph_file(path) -> LabeledDigraph:
    """Parse the graph text format; full-line # comments and blank lines are skipped."""
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
        n, num_labels = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"{path}: non-integer counts in header {lines[0]!r}")
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
        return LabeledDigraph(n, num_labels, edges)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
