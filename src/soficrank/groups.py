"""Finitely generated group models with a fixed symmetric generator set.

Two families are provided: free abelian groups Z^k with the canonical
generators {e_i, -e_i} plus the identity, and finite groups given by a
multiplication table.  Both expose enough structure to build Cayley balls:
the set of elements of word length <= r, ordered breadth-first with
lexicographic tie-breaking, together with the labeled digraph induced on
them.  Each model also owns what the rest of the package would otherwise
decide by group family: the finite quotient whose Cayley graph
approximates it (a torus for Z^k, the group itself when finite) and how
to draw a random element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

import numpy as np

from .digraph import LabeledDigraph, _bfs, table_edges
from .errors import ApproximationTooCoarse, ParseError, ResourceLimitError
from .limits import DEFAULT_MAX_BALL_ELEMENTS


class GroupModel:
    """Interface shared by the group families.

    Elements are plain hashable values (int tuples for Z^k, ints for finite
    groups).  The generator tuple is fixed at construction, symmetric, and
    defines the label alphabet of every graph built from the group: label j
    means generator self.generators[j].
    """

    generators: tuple

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        """Product of two elements already known to belong to the group, unchecked."""
        raise NotImplementedError

    def _right_multiples(self, rows: np.ndarray) -> np.ndarray:
        """Rows g * b, shape (len(rows), |B|, width), for element rows g (Z^k: coordinates; finite: index)."""
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def check_element(self, a) -> None:
        if not self.contains(a):
            raise ValueError(f"foreign element {a!r} for group {self.describe()}")

    def word_length(self, a) -> int:
        """Cayley-graph distance from the identity to a."""
        raise NotImplementedError

    def quotient_side(self, side, radius: int):
        """The side of a finite quotient that verifies at this radius: a default for None, else side checked."""
        raise NotImplementedError

    def quotient_table(self, side, max_vertices: int) -> np.ndarray:
        """Out-table (|V|, |B|) of the Cayley graph of the finite quotient with this side."""
        raise NotImplementedError

    def random_element(self, rng, bound: int):
        """An element drawn with the random.Random rng; bound caps its word length where the model says so."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def format_element(self, a) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def _cache(self) -> dict:
        # Per-instance ball cache; balls are immutable so sharing is safe.
        cache = getattr(self, "_ball_cache", None)
        if cache is None:
            cache = {}
            self._ball_cache = cache
        return cache


class FreeAbelian(GroupModel):
    """Z^k with generators ordered e_1, -e_1, ..., e_k, -e_k and finally the identity.

    The identity belongs to the canonical generator set, so Cayley graphs
    built from this model carry a self-loop at every vertex labeled by the
    identity generator.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank
        gens = []
        for i in range(rank):
            e = tuple(1 if j == i else 0 for j in range(rank))
            gens.append(e)
            gens.append(tuple(-x for x in e))
        gens.append(tuple(0 for _ in range(rank)))
        self.generators = tuple(gens)

    def identity(self):
        return tuple(0 for _ in range(self.rank))

    def _mul(self, a, b):
        return tuple(map(add, a, b))

    def _right_multiples(self, rows):
        return rows[:, None, :] + np.array(self.generators)

    def inverse(self, a):
        self.check_element(a)
        return tuple(-x for x in a)

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.rank
            and all(isinstance(x, int) and not isinstance(x, bool) for x in a)
        )

    def word_length(self, a) -> int:
        self.check_element(a)
        return sum(abs(x) for x in a)

    def quotient_side(self, side, radius: int):
        """The torus side, 2r + 2 by default and never less: at 2r + 1 the ball
        still embeds, but a wrap-around edge joins its two extreme layers."""
        if side is None:
            return 2 * radius + 2
        if side < 2 * radius + 2:
            raise ApproximationTooCoarse(
                f"torus side {side} cannot support verification radius {radius}; need n >= {2 * radius + 2}"
            )
        return side

    def quotient_table(self, side, max_vertices: int) -> np.ndarray:
        """The torus (Z/nZ)^k at side n: coordinates x, x_i in [0, n), are vertex sum x_i * n^i."""
        if side < 1:
            raise ValueError("torus side length must be at least 1")
        total = side**self.rank
        if total > max_vertices:
            raise ResourceLimitError(f"torus with {total} vertices exceeds limit {max_vertices}")
        place = side ** np.arange(self.rank)
        coords = np.arange(total)[:, None] // place % side
        return (self._right_multiples(coords) % side * place).sum(axis=2)

    def random_element(self, rng, bound: int):
        """Uniform over the elements of word length <= bound, by rejection from the box [-bound, bound]^k."""
        while True:
            vec = tuple(rng.randint(-bound, bound) for _ in range(self.rank))
            if sum(map(abs, vec)) <= bound:
                return vec

    def describe(self) -> str:
        return f"Z^{self.rank}"

    def format_element(self, a) -> str:
        return ",".join(str(x) for x in a)

    def parse_element(self, text: str):
        parts = text.strip().split(",")
        try:
            vec = tuple(int(x) for x in parts)
        except ValueError:
            raise ParseError(f"cannot parse Z^{self.rank} element from {text!r}")
        if len(vec) != self.rank:
            raise ParseError(f"element {text!r} has {len(vec)} coordinates, expected {self.rank}")
        return vec

    def __eq__(self, other):
        return isinstance(other, FreeAbelian) and other.rank == self.rank

    def __hash__(self):
        return hash(("FreeAbelian", self.rank))

    def __repr__(self):
        return f"FreeAbelian({self.rank})"


class FiniteByTable(GroupModel):
    """Finite group given by an explicit multiplication table on 0..n-1.

    The table is fully validated: a two-sided identity, two-sided
    inverses, a symmetric generator set, generation of the whole group by
    the BFS that also yields every word length, and associativity.
    Associativity uses Light's test: the elements g with (x g) y = x (g y)
    for all x, y are closed under products, so checking the generators
    suffices once generation holds, in O(n^2 |B|) rather than O(n^3).
    """

    def __init__(self, table, generators, name: str = ""):
        malformed = "multiplication table must be n x n with entries in range"
        try:
            t = np.array(table, dtype=np.int64)
        except (OverflowError, ValueError):  # an entry beyond int64, or ragged rows
            raise ValueError(malformed) from None
        n = len(t)
        if n == 0:
            raise ValueError("multiplication table must be nonempty")
        if t.shape != (n, n) or ((t < 0) | (t >= n)).any():
            raise ValueError(malformed)
        elems = np.arange(n)
        two_sided = (t == elems).all(axis=1) & (t == elems[:, None]).all(axis=0)
        if not two_sided.any():
            raise ValueError("multiplication table has no two-sided identity")
        ident = int(np.argmax(two_sided))
        inverse_pair = (t == ident) & (t.T == ident)
        missing = np.flatnonzero(~inverse_pair.any(axis=1))
        if missing.size:
            raise ValueError(f"element {missing[0]} has no two-sided inverse")
        inv = np.argmax(inverse_pair, axis=1).tolist()
        gens = tuple(int(g) for g in generators)
        if any(not (0 <= g < n) for g in gens):
            raise ValueError("generator out of range")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator")
        gen_set = set(gens)
        for g in gens:
            if inv[g] not in gen_set:
                raise ValueError(f"generator set is not symmetric: inverse of {g} is missing")
        # word lengths: the graph BFS from the identity over a -> a * g
        dist = dict(_bfs(t[:, list(gens)], ident, math.inf))
        if len(dist) < n:
            raise ValueError("generators do not generate the whole group")
        for g in gens:
            # (a g) c against a (g c) for every a and c at once
            bad = np.argwhere(t[t[:, g]] != t[:, t[g]])
            if bad.size:
                a, c = bad[0]
                raise ValueError(f"multiplication table is not associative at ({a},{g},{c})")

        t.flags.writeable = False
        self.table = t  # read-only int64
        self._inv = tuple(inv)
        self._identity = ident
        self.generators = gens
        self.name = name or f"finite-order-{n}"
        self._word_lengths = tuple(dist[a] for a in range(n))

    @property
    def size(self) -> int:
        return len(self.table)

    def identity(self):
        return self._identity

    def _mul(self, a, b):
        return self.table.item(a, b)

    def _right_multiples(self, rows):
        return self.table[rows[:, 0]][:, list(self.generators), None]

    def inverse(self, a):
        self.check_element(a)
        return self._inv[a]

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.size

    def word_length(self, a) -> int:
        self.check_element(a)
        return self._word_lengths[a]

    def quotient_side(self, side, radius: int):
        """A finite group is its own quotient at every radius; quotient_table rejects a side."""
        return side

    def quotient_table(self, side, max_vertices: int) -> np.ndarray:
        """The group's own Cayley graph, which takes no side."""
        if side is not None:
            raise ValueError(f"a torus side applies only to Z^k, not to {self.describe()}")
        if self.size > max_vertices:
            raise ResourceLimitError(f"Cayley graph with {self.size} vertices exceeds limit {max_vertices}")
        return self.table[:, list(self.generators)]

    def random_element(self, rng, bound: int):
        """Uniform over the whole group; the bound does not apply."""
        return rng.randrange(self.size)

    def describe(self) -> str:
        return f"finite:{self.name}"

    def format_element(self, a) -> str:
        return str(a)

    def parse_element(self, text: str):
        try:
            a = int(text.strip())
        except ValueError:
            raise ParseError(f"cannot parse finite-group element from {text!r}")
        if not self.contains(a):
            raise ParseError(f"element index {a} out of range for {self.describe()}")
        return a

    def __eq__(self, other):
        return (
            isinstance(other, FiniteByTable)
            and np.array_equal(other.table, self.table)
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash(("FiniteByTable", self.table.tobytes(), self.generators))

    def __repr__(self):
        return f"FiniteByTable(order={self.size}, generators={self.generators})"


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


@dataclass(eq=False)
class CayleyBall:
    """All group elements of word length <= radius, with their labeled digraph.

    Element 0 is the identity; elements are ordered layer by layer with
    lexicographic tie-breaking, so the element list of a smaller ball is a
    prefix of every larger ball's list.  Graph edges are exactly the pairs
    (g, g*b) with both endpoints inside the ball, labeled by the index of b.

    The BFS tree is computed once, when the ball is built: element j > 0
    is reached from parent[j], the first element in ball order with an
    edge into j, along the label via[j] (both are 0 at the root); the
    elements at depth k sit at positions layers[k]:layers[k+1], the ball's
    one record of depth.  All three are read-only int64 arrays, and a
    prefix ball takes their prefixes.

    The group's ball cache holds the ball, and the ball does not refer back
    to its group, so a dropped group is freed with its balls without a
    cycle collection.
    """

    radius: int
    elements: tuple
    element_index: dict
    graph: LabeledDigraph
    parent: np.ndarray
    via: np.ndarray
    layers: np.ndarray

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"CayleyBall(r={self.radius}, size={self.size})"


def _too_large(group: GroupModel, r: int, max_elements: int) -> ResourceLimitError:
    return ResourceLimitError(f"Cayley ball of {group.describe()} at radius {r} exceeds {max_elements} elements")


def cayley_ball(group: GroupModel, r: int, max_elements: int = DEFAULT_MAX_BALL_ELEMENTS) -> CayleyBall:
    """The radius-r ball: a prefix of the group's largest cached ball, or a new breadth-first closure.

    Either way the ball is the same, and is cached under r.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    cache = group._cache()
    largest = max(cache, default=-1)
    if r > largest:
        ball = _build_ball(group, r, max_elements)
    else:
        ball = cache[r] if r in cache else _prefix(cache[largest], r)
        # a build checks the limit after each layer it adds, so one element always passes
        if ball.size > max(max_elements, 1):
            raise _too_large(group, r, max_elements)
    cache[r] = ball
    return ball


def _prefix(ball: CayleyBall, r: int) -> CayleyBall:
    """The radius-r ball read off a larger one: its first m elements, edges among them and tree."""
    depth = min(r, len(ball.layers) - 2)
    m = int(ball.layers[depth + 1])
    elements = ball.elements[:m]
    return CayleyBall(
        radius=r,
        elements=elements,
        element_index=dict(zip(elements, range(m))),
        graph=ball.graph.induced_prefix(m),
        parent=ball.parent[:m],
        via=ball.via[:m],
        layers=ball.layers[: depth + 2],
    )


def _build_ball(group: GroupModel, r: int, max_elements: int) -> CayleyBall:
    """Breadth-first closure of {identity} under the generators up to depth r."""
    mul = group._mul  # every factor below is a ball element or a generator
    ident = group.identity()
    elements = [ident]
    index = {ident: 0}
    layers = [0, 1]  # the depth-k elements end at layers[k + 1]
    frontier = [ident]
    for _ in range(r):
        discovered = set()
        for g in frontier:
            for b in group.generators:
                h = mul(g, b)
                if h not in index and h not in discovered:
                    discovered.add(h)
        if not discovered:
            break
        ordered = sorted(discovered)
        for h in ordered:
            index[h] = len(elements)
            elements.append(h)
        layers.append(len(elements))
        if len(elements) > max_elements:
            raise _too_large(group, r, max_elements)
        frontier = ordered

    # Edges: look every product g * b up among the elements, by sorting
    # element rows and product rows together once, each row as one opaque
    # byte string (equal rows, equal bytes).
    rows = np.array(elements, dtype=np.int64).reshape(len(elements), -1)
    products = group._right_multiples(rows)
    m, labels, width = products.shape
    both = np.concatenate([rows, products.reshape(-1, width)])
    keys, key_of = np.unique(both.view(np.dtype((np.void, 8 * width))).ravel(), return_inverse=True)
    position = np.full(len(keys), -1, dtype=np.int64)
    position[key_of[:m]] = np.arange(m)
    heads = position[key_of[m:]].reshape(m, labels)
    graph = LabeledDigraph(m, labels, table_edges(heads))
    # BFS tree: the first edge into each element, in (element, label) order
    edges = np.flatnonzero(graph.out.ravel() >= 0)  # i * labels + label, ascending
    reached, first = np.unique(graph.out.ravel()[edges], return_index=True)
    parent = np.zeros(m, dtype=np.int64)
    via = np.zeros(m, dtype=np.int64)
    parent[reached], via[reached] = np.divmod(edges[first], max(labels, 1))
    parent[0] = via[0] = 0  # the root has no parent
    layers = np.array(layers, dtype=np.int64)
    for a in (parent, via, layers):
        a.flags.writeable = False
    return CayleyBall(
        radius=r,
        elements=tuple(elements),
        element_index=index,
        graph=graph,
        parent=parent,
        via=via,
        layers=layers,
    )


def write_finite_group_file(path, group: FiniteByTable) -> None:
    """Write the finite-group table format used by `group = finite:<path>` descriptors."""
    lines = [f"finitegroup {group.size}"]
    lines.extend(" ".join(map(str, row)) for row in group.table.tolist())
    lines.append("generators " + " ".join(str(g) for g in group.generators))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _table_row(path, ln: str):
    """One table row's entries, read as int() reads them.

    numpy reads an unsigned ASCII row in one call and raises ValueError on
    anything else it cannot read.  It also reads a lone sign as 0 or joins
    it to the next entry, so a row with a sign goes to int(), as does any
    row numpy rejects; int() then reads it or names the line.  An entry
    beyond int64 reads as its nearest int64 value, which is just as far out
    of range for the table.
    """
    if "-" not in ln and "+" not in ln:
        try:
            return np.fromstring(ln, dtype=np.int64, sep=" ")
        except ValueError:
            pass
    try:
        return list(map(int, ln.split()))
    except ValueError:
        raise ParseError(f"{path}: non-integer table entry in {ln!r}")


def read_finite_group_file(path) -> FiniteByTable:
    """Parse the finite-group table format: header, n table rows, generators line."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty group table file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "finitegroup":
        raise ParseError(f"{path}: expected header 'finitegroup <n>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"{path}: non-integer order in header")
    if len(lines) != n + 2:
        raise ParseError(f"{path}: expected {n} table rows plus a generators line")
    table = [_table_row(path, ln) for ln in lines[1 : n + 1]]
    gen_line = lines[n + 1].split()
    if not gen_line or gen_line[0] != "generators":
        raise ParseError(f"{path}: expected final 'generators ...' line")
    try:
        gens = [int(x) for x in gen_line[1:]]
    except ValueError:
        raise ParseError(f"{path}: non-integer generator index")
    try:
        return FiniteByTable(table, gens)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
