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
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import add

import numpy as np

from .digraph import LabeledDigraph, _bfs
from .errors import ApproximationTooCoarse, ParseError, ResourceLimitError, content_lines, read_utf8
from .limits import DEFAULT_MAX_BALL_ELEMENTS, MAX_BALL_PRODUCT_CELLS


class GroupModel:
    """Interface shared by the group families.

    Elements are plain hashable values (int tuples for Z^k, ints for finite
    groups).  The generator tuple is fixed at construction, symmetric, and
    defines the label alphabet of every graph built from the group: label j
    means generator self.generators[j].
    """

    generators: tuple

    @property
    def label_count(self) -> int:
        """|B|: the number of generators, and of labels in every graph built from the group."""
        return len(self.generators)

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        """Product of two elements already known to belong to the group, unchecked."""
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

    def ball_size(self, r: int) -> int:
        """Number of elements of word length <= r, without building the ball."""
        raise NotImplementedError

    def ball_table(self, r: int):
        """The radius-r ball without a search: its elements in ball order (by word
        length, then by element), the layer bounds (the depth-k elements sit at
        positions layers[k]:layers[k+1]) and the out-table (|ball|, |B|) of int64
        positions of element * generator, -1 outside the ball."""
        raise NotImplementedError

    def kernel_complete_radius(self, d: int, rs: int) -> int:
        """A radius n >= 1 at which a d x d element of support radius rs has a
        nonzero restricted kernel if it has one at any radius."""
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

    _ball = None  # the largest Cayley ball built so far, which cayley_ball cuts smaller radii from


class FreeAbelian(GroupModel):
    """Z^k with generators ordered e_1, -e_1, ..., e_k, -e_k and finally the identity.

    The identity belongs to the canonical generator set, so Cayley graphs
    built from this model carry a self-loop at every vertex labeled by the
    identity generator.  A rank whose radius-0 ball alone passes the
    product-cell budget is refused before any generator is built.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        # the radius-0 ball's products: as many cells as the generators, so checked before they exist
        if (2 * rank + 1) * rank > MAX_BALL_PRODUCT_CELLS:
            raise ResourceLimitError(
                f"Cayley ball of Z^{rank} at radius 0 exceeds {MAX_BALL_PRODUCT_CELLS} product cells"
            )
        self.rank = rank

    @cached_property
    def generators(self) -> tuple:
        """Built at first use: for a huge rank, building them takes longer than refusing its ball."""
        zero = (0,) * self.rank
        return tuple(zero[:i] + (e,) + zero[i + 1 :] for i in range(self.rank) for e in (1, -1)) + (zero,)

    @property
    def label_count(self) -> int:
        return 2 * self.rank + 1

    def identity(self):
        return (0,) * self.rank

    def _mul(self, a, b):
        return tuple(map(add, a, b))

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

    def ball_size(self, r: int) -> int:
        """Elements of Z^k with i nonzero coordinates and L1 norm <= r: choose
        the i axes, their signs, and positive parts summing to at most r."""
        return sum(2**i * math.comb(self.rank, i) * math.comb(r, i) for i in range(min(self.rank, r) + 1))

    def ball_table(self, r: int):
        """The L1 ball enumerated one coordinate at a time, which gives lexicographic
        order, then stably sorted by norm.

        Each vector is keyed by its coordinates as radix-(2r+3) digits, first
        coordinate first.  Digits in [-(r+1), r+1] keep the key exact and ordered
        as the vectors on the radius-(r+1) ball, and the key is linear, so the
        product g + b is found by searching key(g) + key(b) among the ball's keys,
        which the enumeration leaves sorted.  The keys are Python ints where
        (2r+3)^k passes int64.
        """
        base = 2 * r + 3
        key = np.zeros(1, dtype=np.int64 if base**self.rank < 2**63 else object)
        norm = np.zeros(1, dtype=np.int64)
        values = np.arange(-r, r + 1)
        magnitude = np.abs(values)
        steps = []  # per coordinate: the vector each new one extends, and the new coordinate
        for _ in range(self.rank):
            rows, col = (magnitude <= (r - norm)[:, None]).nonzero()
            x = values[col]
            key = key[rows] * base + x
            norm = norm[rows] + magnitude[col]
            steps.append((rows, x))
        order = norm.argsort(kind="stable")
        columns, back = [], order  # the ball's coordinates, last first, traced back through the steps
        for rows, x in reversed(steps):
            columns.append(x[back].tolist())
            back = rows[back]
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        unit = [base**c for c in range(self.rank - 1, -1, -1)]  # key(e_1), ..., key(e_k)
        generator_keys = np.array([s * u for u in unit for s in (1, -1)] + [0], dtype=key.dtype)
        products = generator_keys[:, None] + key  # (|B|, |ball|), each row ascending, which speeds the search
        # searching all keys but the last gives a position < |ball|: the last key's own, past the others
        at = key[:-1].searchsorted(products)
        out = position[at]
        out[key[at] != products] = -1
        out = out.T[order]
        layers = np.concatenate(([0], np.bincount(norm).cumsum()))
        return list(zip(*reversed(columns))), layers, out

    def kernel_complete_radius(self, d: int, rs: int) -> int:
        """(d-1) rs, at least 1.  F_p[Z^k] is a commutative domain, so phi has a
        kernel vector exactly when det phi = 0.  Then phi has rank r < d over the
        fraction field, and Cramer's rule on a nonsingular r x r minor gives a
        kernel vector whose entries are r x r minors: sums of products of r
        coefficients, so supported in the radius-r rs ball."""
        return max(1, (d - 1) * rs)

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
        return ((coords[:, None, :] + np.array(self.generators)) % side * place).sum(axis=2)

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
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise ValueError(malformed)
        ident, inv = _identity_and_inverses(t)
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
        # (a g) c against a (g c) for every a and c at once; argwhere is slow, so only on a mismatch.
        # The narrowest copy that holds the entries (all below n) makes the comparison several
        # times faster on a table of a few hundred elements than on the int64 table.
        small = t.astype(np.int16 if n < 2**15 else np.int32)
        for g in gens:
            mismatch = small[small[:, g]] != small[:, small[g]]
            if mismatch.any():
                a, c = np.argwhere(mismatch)[0]
                raise ValueError(f"multiplication table is not associative at ({a},{g},{c})")

        t.flags.writeable = False
        self.table = t  # read-only int64
        self._inv = tuple(inv)
        self._identity = ident
        self.generators = gens
        self.name = name or f"finite-order-{n}"
        self._word_lengths = tuple(dist[a] for a in range(n))
        # entry k: the elements of word length <= k, up to the diameter
        self._ball_sizes = tuple(np.cumsum(np.bincount(self._word_lengths)).tolist())
        self._ball_order = np.argsort(self._word_lengths, kind="stable")  # by word length, then element

    @property
    def size(self) -> int:
        return len(self.table)

    def identity(self):
        return self._identity

    def _mul(self, a, b):
        return self.table.item(a, b)

    def inverse(self, a):
        self.check_element(a)
        return self._inv[a]

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.size

    def word_length(self, a) -> int:
        self.check_element(a)
        return self._word_lengths[a]

    def ball_size(self, r: int) -> int:
        return self._ball_sizes[min(r, len(self._ball_sizes) - 1)]

    def ball_table(self, r: int):
        """The first ball_size(r) elements in ball order, and their products read
        off the table through a dense position array."""
        layers = np.array((0,) + self._ball_sizes[: r + 1])
        order = self._ball_order[: layers[-1]]
        position = np.full(self.size, -1)
        position[order] = np.arange(order.size)
        return order.tolist(), layers, position[self.table[order[:, None], self.generators]]

    def kernel_complete_radius(self, d: int, rs: int) -> int:
        """The diameter, at least 1: from there on the ball is the whole group
        and the restriction no longer changes with the radius."""
        return max(1, len(self._ball_sizes) - 1)

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
        return other is self or (
            isinstance(other, FiniteByTable)
            and np.array_equal(other.table, self.table)
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash(("FiniteByTable", self.table.tobytes(), self.generators))

    def __repr__(self):
        return f"FiniteByTable(order={self.size}, generators={self.generators})"


def _identity_and_inverses(t: np.ndarray) -> tuple[int, list]:
    """The two-sided identity e of an n x n table with entries in range, and
    each element's least two-sided inverse, with one n x n comparison.

    Only a row with e 0 = 0 can be e, so only those rows and their columns
    are compared.  The least b with a b = e is a's least two-sided inverse
    whenever b a = e too, as in every group; otherwise the full two-sided
    mask decides, and names the least element without an inverse.
    """
    n = len(t)
    elems = np.arange(n)
    for e in np.flatnonzero(t[:, 0] == 0).tolist():
        if (t[e] == elems).all() and (t[:, e] == elems).all():
            break
    else:
        raise ValueError("multiplication table has no two-sided identity")
    inv = np.argmax(t == e, axis=1)
    if not ((t[elems, inv] == e).all() and (t[inv, elems] == e).all()):
        inverse_pair = (t == e) & (t.T == e)
        missing = np.flatnonzero(~inverse_pair.any(axis=1))
        if missing.size:
            raise ValueError(f"element {missing[0]} has no two-sided inverse")
        inv = np.argmax(inverse_pair, axis=1)
    return e, inv.tolist()


@dataclass(eq=False)
class CayleyBall:
    """All group elements of word length <= radius, with their labeled digraph.

    Element 0 is the identity; elements are ordered layer by layer with
    lexicographic tie-breaking, so the element list of a smaller ball is a
    prefix of every larger ball's list: prefix(r) cuts it.  Graph edges are
    exactly the pairs (g, g*b) with both endpoints inside the ball, labeled
    by the index of b.

    The BFS tree is read off the out-table once, when the ball is built:
    element j > 0 is reached from parent[j], the first element in ball
    order with an edge into j, along the label via[j] (both are 0 at the
    root); the elements at depth k sit at positions layers[k]:layers[k+1],
    the ball's one record of depth.  All three are read-only int64 arrays, and a
    cut takes their prefixes.

    The group holds its largest ball, and the ball does not refer back to
    its group, so a dropped group is freed with its ball without a cycle
    collection.
    """

    radius: int
    elements: tuple
    graph: LabeledDigraph
    parent: np.ndarray
    via: np.ndarray
    layers: np.ndarray

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property  # built at the first read, so a cut makes no dict until a caller asks for a position
    def element_index(self) -> dict:
        return dict(zip(self.elements, range(self.size)))

    def prefix(self, r: int) -> "CayleyBall":
        """The radius-r ball, r <= radius: this ball at its own radius, else its first elements, edges and tree."""
        if not 0 <= r <= self.radius:
            raise ValueError(f"radius {r} is not a cut of the radius-{self.radius} ball")
        if r == self.radius:
            return self
        layers = self.layers[: r + 2]  # every layer when r is past the diameter
        m = int(layers[-1])
        return CayleyBall(
            radius=r,
            elements=self.elements[:m],
            graph=self.graph.induced_prefix(m),
            parent=self.parent[:m],
            via=self.via[:m],
            layers=layers,
        )

    def __repr__(self):
        return f"CayleyBall(r={self.radius}, size={self.size})"


def cayley_ball(group: GroupModel, r: int, max_elements: int = DEFAULT_MAX_BALL_ELEMENTS) -> CayleyBall:
    """The radius-r ball: a cut of the group's ball when that reaches r, else a new build that replaces it.

    Either way the ball is the same, and a cut is checked against the limits as a build is.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if group._ball is None or r > group._ball.radius:
        group._ball = _build_ball(group, r, max_elements)
    else:
        _check_limits(group, r, max_elements)
    return group._ball.prefix(r)


def _check_limits(group: GroupModel, r: int, max_elements: int) -> None:
    """Refuse the radius-r ball at the first depth 1..r where the ball still grows and a limit binds.

    The element limit is named first when both bind at that depth.  Both
    limits grow with the ball size, which is monotone in the depth and
    constant past the diameter, so one binds at such a depth exactly when the
    group is nontrivial and one binds at r; that first depth is then found by
    bisection on the model's closed-form ball sizes, in O(log r) of them.
    """
    cells = group.label_count * np.size(group.identity())  # per element, in its products' coordinates

    def binds(depth: int) -> bool:
        size = group.ball_size(depth)
        return size > max_elements or size * cells > MAX_BALL_PRODUCT_CELLS

    if r < 1 or not binds(r) or group.ball_size(1) == 1:
        return
    if group.ball_size(1 + bisect_left(range(1, r + 1), True, key=binds)) > max_elements:
        raise ResourceLimitError(f"Cayley ball of {group.describe()} at radius {r} exceeds {max_elements} elements")
    raise ResourceLimitError(
        f"Cayley ball of {group.describe()} at radius {r} exceeds {MAX_BALL_PRODUCT_CELLS} product cells"
    )


def _build_ball(group: GroupModel, r: int, max_elements: int) -> CayleyBall:
    """The radius-r ball from the model's ball_table, once the limits pass.

    The tree needs no search: parent[j] and via[j] are the least flat
    position parent * |B| + via in the out-table that holds j.  That is the
    breadth-first tree edge, the first (element, label) in ball order that
    reaches j: the elements of depth k - 1 precede those of depths k and
    k + 1 in ball order, and each element of depth k >= 1 is reached from
    one of depth k - 1.
    """
    _check_limits(group, r, max_elements)
    elements, layers, out = group.ball_table(r)
    m, b = out.shape
    code = np.full(m + 1, m * b)  # a spare last entry takes the heads -1
    np.minimum.at(code, out.ravel(), np.arange(m * b))
    code[0] = 0  # the root has no parent
    parent, via = divmod(code[:m], max(b, 1))
    for a in (parent, via, layers):
        a.flags.writeable = False
    return CayleyBall(
        radius=r,
        elements=tuple(elements),
        graph=LabeledDigraph.from_table(out),
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


def _table_rows(path, rows: list):
    """The table rows' entries, read as int() reads them.

    One loadtxt call reads rows of ASCII integers.  Whatever it refuses or
    warns about goes to int() row by row, which then reads it or names the
    first line it cannot read: a lone sign, an underscore, a non-ASCII
    digit, a ragged row, an entry beyond int64, or the integral float (such
    as 0.0) that NumPy 1.x only deprecates in an integer column.  An empty
    row list skips loadtxt, which warns on it.
    """
    if rows:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
            except (ValueError, OverflowError, Warning):
                pass
    table = []
    for ln in rows:
        try:
            table.append(list(map(int, ln.split())))
        except ValueError:
            raise ParseError(f"{path}: non-integer table entry in {ln!r}") from None
    return table


def read_finite_group_file(path) -> FiniteByTable:
    """Parse the finite-group table format: header, n table rows, generators line."""
    lines = content_lines(read_utf8(path))
    if not lines:
        raise ParseError(f"{path}: empty group table file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "finitegroup":
        raise ParseError(f"{path}: expected header 'finitegroup <n>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"{path}: non-integer order in header")
    if n < 0:
        raise ParseError(f"{path}: negative order {n} in header")
    if len(lines) != n + 2:
        raise ParseError(f"{path}: expected {n} table rows plus a generators line")
    table = _table_rows(path, lines[1 : n + 1])
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
