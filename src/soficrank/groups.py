"""Finitely generated group models with a fixed symmetric generator set.

Two families are provided: free abelian groups Z^k with the canonical
generators {e_i, -e_i} plus the identity, and finite groups given by a
multiplication table.  Both expose enough structure to build Cayley balls:
the set of elements of word length <= r, ordered breadth-first with
lexicographic tie-breaking, together with the labeled digraph induced on
them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import add

import numpy as np

from .digraph import LabeledDigraph, table_edges
from .errors import ParseError, ResourceLimitError
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

    def element_key(self, a):
        """Deterministic sort key used for tie-breaking inside BFS layers."""
        raise NotImplementedError

    def word_length(self, a) -> int:
        """Cayley-graph distance from the identity to a."""
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

    def element_key(self, a):
        return a

    def word_length(self, a) -> int:
        self.check_element(a)
        return sum(abs(x) for x in a)

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
        rows = t.tolist()
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
        dist = [-1] * n  # word lengths, by breadth-first search from the identity
        dist[ident] = 0
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    h = rows[a][g]
                    if dist[h] == -1:
                        dist[h] = dist[a] + 1
                        nxt.append(h)
            frontier = nxt
        if -1 in dist:
            raise ValueError("generators do not generate the whole group")
        for g in gens:
            # (a g) c against a (g c) for every a and c at once
            bad = np.argwhere(t[t[:, g]] != t[:, t[g]])
            if bad.size:
                a, c = bad[0]
                raise ValueError(f"multiplication table is not associative at ({a},{g},{c})")

        t.flags.writeable = False
        self.table = t  # read-only int64; _rows holds it as lists for scalar products
        self._rows = rows
        self._inv = tuple(inv)
        self._identity = ident
        self.generators = gens
        self.name = name or f"finite-order-{n}"
        self._word_lengths = tuple(dist)

    @property
    def size(self) -> int:
        return len(self._rows)

    def identity(self):
        return self._identity

    def _mul(self, a, b):
        return self._rows[a][b]

    def _right_multiples(self, rows):
        return self.table[rows[:, 0]][:, list(self.generators), None]

    def inverse(self, a):
        self.check_element(a)
        return self._inv[a]

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < len(self._rows)

    def element_key(self, a):
        return a

    def word_length(self, a) -> int:
        self.check_element(a)
        return self._word_lengths[a]

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
        return f"FiniteByTable(order={len(self._rows)}, generators={self.generators})"


def cyclic_group(n: int) -> FiniteByTable:
    """Z/nZ with generators {1, n-1} (just {1} when n <= 2; empty when n == 1)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
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
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    x = a1 * n2 + b1
                    y = a2 * n2 + b2
                    table[x][y] = g1.multiply(a1, a2) * n2 + g2.multiply(b1, b2)
    e1, e2 = g1.identity(), g2.identity()
    gens = [g * n2 + e2 for g in g1.generators] + [e1 * n2 + h for h in g2.generators]
    # Deduplicate while preserving order (identity generators can coincide).
    seen, uniq = set(), []
    for g in gens:
        if g not in seen:
            seen.add(g)
            uniq.append(g)
    return FiniteByTable(table, uniq, name=f"{g1.name}x{g2.name}")


class _HeldWeakly:
    """Dataclass field whose value is held through a weak reference (None once it is freed)."""

    def __set_name__(self, owner, name):
        self.slot = f"_{name}_ref"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("the field has no default")
        return obj.__dict__[self.slot]()

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = weakref.ref(value)


@dataclass(eq=False)
class CayleyBall:
    """All group elements of word length <= radius, with their labeled digraph.

    Element 0 is the identity; elements are ordered layer by layer with
    lexicographic tie-breaking, so the element list of a smaller ball is a
    prefix of every larger ball's list.  Graph edges are exactly the pairs
    (g, g*b) with both endpoints inside the ball, labeled by the index of b.

    The group's ball cache holds the ball, so the ball holds its group
    weakly: a strong reference back would be a cycle that keeps every
    group, with its balls, alive until a full garbage collection.
    """

    group: GroupModel = _HeldWeakly()
    radius: int
    elements: tuple
    element_index: dict
    distance_from_root: tuple[int, ...]
    graph: LabeledDigraph

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"CayleyBall({self.group.describe()}, r={self.radius}, size={self.size})"


def cayley_ball(group: GroupModel, r: int, max_elements: int = DEFAULT_MAX_BALL_ELEMENTS) -> CayleyBall:
    """Breadth-first closure of {identity} under the generators up to depth r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    cache = group._cache()
    hit = cache.get(r)
    if hit is not None and hit.size <= max_elements:
        return hit

    mul = group._mul  # every factor below is a ball element or a generator
    ident = group.identity()
    elements = [ident]
    index = {ident: 0}
    dist = [0]
    frontier = [ident]
    for layer in range(1, r + 1):
        discovered = set()
        for g in frontier:
            for b in group.generators:
                h = mul(g, b)
                if h not in index and h not in discovered:
                    discovered.add(h)
        if not discovered:
            break
        ordered = sorted(discovered, key=group.element_key)
        for h in ordered:
            index[h] = len(elements)
            elements.append(h)
            dist.append(layer)
        if len(elements) > max_elements:
            raise ResourceLimitError(
                f"Cayley ball of {group.describe()} at radius {r} exceeds {max_elements} elements"
            )
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
    ball = CayleyBall(
        group=group,
        radius=r,
        elements=tuple(elements),
        element_index=index,
        distance_from_root=tuple(dist),
        graph=LabeledDigraph(m, labels, table_edges(heads)),
    )
    cache[r] = ball
    return ball


def write_finite_group_file(path, group: FiniteByTable) -> None:
    """Write the finite-group table format used by `group = finite:<path>` descriptors."""
    lines = [f"finitegroup {group.size}"]
    lines.extend(" ".join(map(str, row)) for row in group.table.tolist())
    lines.append("generators " + " ".join(str(g) for g in group.generators))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    table = []
    for ln in lines[1 : n + 1]:
        try:
            table.append(list(map(int, ln.split())))
        except ValueError:
            raise ParseError(f"{path}: non-integer table entry in {ln!r}")
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
