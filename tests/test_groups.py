import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import (
    ball_by_products,
    ball_by_sorting,
    cyclic_group,
    dihedral_group,
    direct_product_table,
    identity_and_inverses_by_masks,
    limit_error_by_depths,
    symmetric_group_5,
    table_rows_by_int,
)
from soficrank import groups
from soficrank.errors import ParseError, ResourceLimitError
from soficrank.groups import (
    FiniteByTable,
    FreeAbelian,
    cayley_ball,
    read_finite_group_file,
    write_finite_group_file,
)


def z2_ball_size_bruteforce(n):
    # independent enumeration: lattice vectors with |x| + |y| <= n
    return sum(
        1
        for x in range(-n, n + 1)
        for y in range(-n, n + 1)
        if abs(x) + abs(y) <= n
    )


def depths(ball):
    """Each ball element's word length, read off the ball's layer bounds."""
    return np.repeat(np.arange(len(ball.layers) - 1), np.diff(ball.layers))


class TestFreeAbelian:
    def test_multiply_is_vector_addition(self):
        G = FreeAbelian(2)
        assert G.multiply((1, 0), (0, 1)) == (1, 1)

    def test_identity_neutral(self):
        G = FreeAbelian(3)
        g = (2, -1, 4)
        assert G.multiply(G.identity(), g) == g

    def test_inverse_negates(self):
        G = FreeAbelian(2)
        assert G.inverse((3, -2)) == (-3, 2)
        assert G.inverse(G.identity()) == G.identity()

    def test_generators_symmetric_with_identity(self):
        G = FreeAbelian(2)
        gens = set(G.generators)
        assert gens == {(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)}
        for b in gens:
            assert G.inverse(b) in gens

    def test_foreign_element(self):
        G = FreeAbelian(2)
        with pytest.raises(ValueError):
            G.multiply((1, 0, 0), (0, 1))


class TestFiniteByTable:
    def test_cyclic_three_multiplication(self):
        G = cyclic_group(3)
        assert G.multiply(2, 2) == 1
        assert G.inverse(1) == 2

    def test_trivial_group(self):
        G = cyclic_group(1)
        assert G.identity() == 0
        assert cayley_ball(G, 0).size == 1

    def test_rejects_asymmetric_generators(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValueError):
            FiniteByTable(table, [1])  # inverse 3 missing

    def test_rejects_non_generating_set(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValueError):
            FiniteByTable(table, [2])  # only reaches {0, 2}

    def test_rejects_non_associative(self):
        # 2-element "table" with a broken entry
        with pytest.raises(ValueError):
            FiniteByTable([[0, 1], [1, 1]], [1])

    def test_rejects_loop_passing_every_other_check(self):
        # An order-5 loop: identity 0, every element its own inverse, and
        # {1, 2} generates it.  No group of order 5 has all elements
        # self-inverse, so only the associativity check can reject it.
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match="not associative"):
            FiniteByTable(loop, [1, 2])

    def test_rejects_entries_beyond_int64(self):
        for huge in (10**20, -(10**20)):
            with pytest.raises(ValueError, match="entries in range"):
                FiniteByTable([[0, huge], [1, 0]], [1])

    def test_direct_product(self):
        G = direct_product_table(cyclic_group(2), cyclic_group(3))
        assert G.size == 6
        a = G.multiply(1 * 3 + 0, 0 * 3 + 1)  # (1,0)*(0,1) = (1,1)
        assert a == 1 * 3 + 1

    def test_direct_product_is_componentwise(self):
        g1, g2 = symmetric_group_5(), cyclic_group(4)
        G = direct_product_table(g1, g2)
        x, y = np.divmod(np.arange(G.size), g2.size)
        assert np.array_equal(G.table, g1.table[np.ix_(x, x)] * g2.size + g2.table[np.ix_(y, y)])
        assert np.array_equal(cyclic_group(7).table, np.add.outer(range(7), range(7)) % 7)

    @pytest.mark.parametrize(
        "make",
        [lambda: cyclic_group(7), symmetric_group_5, lambda: direct_product_table(cyclic_group(3), symmetric_group_5())],
        ids=["cyclic-7", "S5", "cyclic-3xS5"],
    )
    def test_word_length_is_ball_depth(self, make):
        G = make()
        diameter = max(G.word_length(a) for a in range(G.size))
        ball = cayley_ball(G, diameter)
        assert ball.size == G.size
        assert [G.word_length(g) for g in ball.elements] == depths(ball).tolist()

    def test_word_length_bfs(self):
        G = cyclic_group(6)
        assert G.word_length(G.identity()) == 0
        assert G.word_length(1) == 1
        assert G.word_length(3) == 3
        assert G.word_length(5) == 1  # via the generator n-1

    def test_file_round_trip(self, tmp_path):
        G = cyclic_group(5)
        path = tmp_path / "c5.table"
        write_finite_group_file(path, G)
        H = read_finite_group_file(path)
        assert H == G

    def test_equal_tables_compare_by_content(self):
        G = symmetric_group_5()
        H = FiniteByTable(G.table.copy(), G.generators)
        assert H is not G and H.table is not G.table
        assert G == G and H == G and G == H
        assert hash(H) == hash(G)
        assert FiniteByTable(G.table, G.generators[::-1]) != G
        assert cyclic_group(5) != cyclic_group(6)


class TestFiniteGroupFileErrors:
    def read(self, tmp_path, text):
        path = tmp_path / "g.table"
        path.write_text(text)
        return read_finite_group_file(path)

    def test_non_integer_entry_names_its_line(self, tmp_path):
        # the ragged first row is reported only after every entry parses
        with pytest.raises(ParseError, match=r"non-integer table entry in '2 x 1'$"):
            self.read(tmp_path, "finitegroup 3\n0 1\n1 2 0\n2 x 1\ngenerators 1 2\n")

    def test_row_count(self, tmp_path):
        with pytest.raises(ParseError, match=r"expected 3 table rows plus a generators line$"):
            self.read(tmp_path, "finitegroup 3\n0 1 2\n1 2 0\ngenerators 1 2\n")

    def test_negative_order(self, tmp_path):
        # "finitegroup -1" alone has n + 2 = 1 lines, so the row count cannot catch it
        for text in ("finitegroup -1\n", "finitegroup -2\n0\ngenerators\n"):
            with pytest.raises(ParseError, match=r"g.table: negative order -\d in header$"):
                self.read(tmp_path, text)

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError, match=r"multiplication table must be n x n with entries in range$"):
            self.read(tmp_path, "finitegroup 3\n0 1 2\n1 2\n2 0 1 0\ngenerators 1 2\n")

    def test_entry_beyond_int64(self, tmp_path):
        with pytest.raises(ParseError, match=r"entries in range$"):
            self.read(tmp_path, f"finitegroup 2\n0 1\n1 {10**20}\ngenerators 1\n")


class TestFiniteGroupFileParse:
    """Table rows read exactly as int() reads their whitespace-separated entries."""

    CLEAN = "finitegroup 3\n0 1 2\n1 2 0\n2 0 1\ngenerators 1 2\n"

    def read(self, tmp_path, text):
        path = tmp_path / "g.table"
        path.write_text(text, encoding="utf-8")
        return read_finite_group_file(path)

    @pytest.mark.parametrize(
        "rows",
        [
            ["0\t1\t2", "1  2   0", "2 0 1 \t "],  # tabs, repeated spaces, trailing blanks
            ["+0 +1 +2", "1 +2 0", "2 0 1"],  # explicit plus signs
            ["0 0_1 2", "1 2 0", "2 0 1"],  # an underscore int() accepts
            ["0 \u0661 2", "1 2 0", "2 0 \u0661"],  # ARABIC-INDIC DIGIT ONE
            ["00 01 02", "1 2 0", "2 0 1"],  # leading zeros
        ],
    )
    def test_rows_read_as_int_reads_them(self, tmp_path, rows):
        text = "finitegroup 3\n" + "\n".join(rows) + "\ngenerators 1 2\n"
        assert self.read(tmp_path, text) == self.read(tmp_path, self.CLEAN)

    @pytest.mark.parametrize("row", ["1 - 2 0", "1 2 0 -", "1 + 2 0", "1 2 0x0", "1 2 0.0", "1,2,0"])
    def test_rows_int_rejects_name_their_line(self, tmp_path, row):
        text = f"finitegroup 3\n0 1 2\n{row}\n2 0 1\ngenerators 1 2\n"
        with pytest.raises(ParseError, match=re.escape(f"non-integer table entry in {row!r}") + "$"):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("entry", [str(10**20), str(2**63), f"+{10**20}", str(-(10**20))])
    def test_entries_beyond_int64_are_out_of_range(self, tmp_path, entry):
        with pytest.raises(ParseError, match=r"entries in range$"):
            self.read(tmp_path, f"finitegroup 2\n0 1\n1 {entry}\ngenerators 1\n")


# Renderings of a table entry v: int() reads the first five as v, rejects the
# next three, and the last is beyond int64.
ENTRY_FORMS = (
    str,
    "+{}".format,
    "00{}".format,
    "0_{}".format,
    lambda v: chr(0x660 + v),  # ARABIC-INDIC DIGIT v
    "{}.0".format,
    "{}e0".format,
    "{}_".format,
    lambda v: str(2**63 + v),
)
TABLE_ALPHABET = "0123456789+-_.e١\t  "


@st.composite
def table_rows(draw):
    """The rows of a cyclic group's table of order n <= 4, each entry in one of
    a few forms drawn per table, between tabs and runs of spaces; a row may be
    one entry short or long, or text drawn from the alphabet."""
    n = draw(st.integers(0, 4))
    forms = draw(st.lists(st.sampled_from(ENTRY_FORMS), min_size=1, max_size=3, unique=True))
    rows = []
    for a in range(n):
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.text(TABLE_ALPHABET, min_size=1, max_size=12).filter(str.strip)))
            continue
        width = n + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
        cells = [draw(st.sampled_from(forms))((a + b) % n) for b in range(width)]
        gaps = draw(st.lists(st.sampled_from((" ", "  ", "\t", " \t ")), min_size=width, max_size=width))
        row = "".join(c + g for c, g in zip(cells, gaps))
        rows.append(row if row.strip() else "0")
    return n, rows


def outcome(read):
    """A read's group as its table and generators, or its ParseError text."""
    try:
        group = read()
    except ParseError as exc:
        return str(exc)
    return group.table.tolist(), group.generators


@settings(max_examples=300, deadline=None)
@given(table_rows())
@example((0, []))
@example((1, ["0"]))
@example((1, ["0.0"]))
@example((2, ["0 1", "1 1e0"]))
@example((2, ["0 1", f"1 {2**63}"]))
@example((3, ["0 1", "1 2 0", "2 x 1"]))
def test_reader_matches_the_int_oracle(tmp_path_factory, case):
    n, rows = case
    gens = list(cyclic_group(n).generators) if n else []
    path = tmp_path_factory.getbasetemp() / "oracle.table"
    path.write_text("\n".join([f"finitegroup {n}", *rows, "generators " + " ".join(map(str, gens))]), encoding="utf-8")

    def read_by_int():
        table = table_rows_by_int(path, [row.strip() for row in rows])
        try:
            return FiniteByTable(table, gens)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(lambda: read_finite_group_file(path)) == outcome(read_by_int)


s5_table = functools.cache(symmetric_group_5)


@st.composite
def mutated_tables(draw):
    """A cyclic, dihedral or S5 table under a random relabelling, and its
    generators, with at most one entry changed: anywhere, or so that a second
    row x has x 0 = 0, a row holds the identity twice, or an inverse breaks."""
    kind = draw(st.sampled_from(("cyclic", "dihedral", "S5")))
    G = (
        cyclic_group(draw(st.integers(1, 9)))
        if kind == "cyclic"
        else dihedral_group(draw(st.integers(3, 7)))
        if kind == "dihedral"
        else s5_table()
    )
    n = G.size
    label = np.array(draw(st.permutations(range(n))))
    t = np.empty_like(G.table)
    t[np.ix_(label, label)] = label[G.table]
    e = int(label[G.identity()])
    element = st.integers(0, n - 1)
    mutation = draw(st.sampled_from(("none", "entry", "identity-like row", "identity twice", "broken inverse")))
    if mutation == "entry":
        t[draw(element), draw(element)] = draw(element)
    elif mutation == "identity-like row":
        t[draw(element), 0] = 0
    elif mutation == "identity twice":
        t[draw(element), draw(element)] = e
    elif mutation == "broken inverse" and n > 1:
        a = draw(element)
        t[a, np.flatnonzero(t[a] == e)[0]] = draw(element.filter(lambda k: k != e))
    return t, label[list(G.generators)].tolist()


@settings(max_examples=300, deadline=None)
@given(mutated_tables())
def test_identity_and_inverses_match_the_masks(case):
    t, gens = case
    try:
        want = identity_and_inverses_by_masks(t)
    except ValueError as exc:
        want = str(exc)
    try:
        e, inv = groups._identity_and_inverses(t)
        assert (e, tuple(inv)) == want
    except ValueError as exc:
        assert str(exc) == want
    try:
        G = FiniteByTable(t, gens)
    except ValueError as exc:
        # a table the masks accept may still fail a later check
        assert isinstance(want, tuple) or str(exc) == want
    else:
        assert (G.identity(), G._inv) == want


class TestCayleyBall:
    def test_z1_sizes(self):
        G = FreeAbelian(1)
        for n in range(0, 8):
            assert cayley_ball(G, n).size == 2 * n + 1

    def test_z1_elements_match_interval(self):
        ball = cayley_ball(FreeAbelian(1), 3)
        assert sorted(v[0] for v in ball.elements) == list(range(-3, 4))

    def test_z2_small_sizes(self):
        G = FreeAbelian(2)
        assert cayley_ball(G, 1).size == 5
        assert cayley_ball(G, 2).size == 13

    def test_z2_sizes_against_bruteforce(self):
        G = FreeAbelian(2)
        for n in range(0, 7):
            assert cayley_ball(G, n).size == z2_ball_size_bruteforce(n)

    def test_radius_zero(self):
        G = cyclic_group(3)  # generators exclude the identity
        ball = cayley_ball(G, 0)
        assert ball.size == 1
        assert ball.elements[0] == G.identity()
        assert ball.graph.edge_count == 0

    def test_radius_zero_with_identity_generator(self):
        # Z^k carries the identity generator, so the root has a self-loop.
        ball = cayley_ball(FreeAbelian(1), 0)
        assert ball.size == 1
        assert ball.graph.edge_count == 1

    def test_root_is_identity_and_ordering_deterministic(self):
        ball = cayley_ball(FreeAbelian(1), 2)
        assert ball.elements[0] == (0,)
        assert ball.elements == ((0,), (-1,), (1,), (-2,), (2,))
        assert depths(ball).tolist() == [0, 1, 1, 2, 2]

    def test_smaller_ball_is_prefix(self):
        G = FreeAbelian(2)
        small = cayley_ball(G, 2)
        large = cayley_ball(G, 3)
        assert large.elements[: small.size] == small.elements

    def test_smaller_ball_graph_is_subgraph(self):
        G = FreeAbelian(2)
        small = cayley_ball(G, 2)
        large = cayley_ball(G, 3)
        small_edges = set(small.graph.edges())
        large_edges = set(large.graph.edges())
        assert small_edges <= large_edges

    def test_edges_are_exactly_in_ball_products(self):
        G = FreeAbelian(1)
        ball = cayley_ball(G, 2)
        expected = set()
        for i, g in enumerate(ball.elements):
            for label, b in enumerate(G.generators):
                h = G.multiply(g, b)
                if h in ball.element_index:
                    expected.add((i, ball.element_index[h], label))
        assert set(ball.graph.edges()) == expected

    def test_ball_size_monotone(self):
        G = FreeAbelian(2)
        sizes = [cayley_ball(G, r).size for r in range(6)]
        assert sizes == sorted(sizes)

    def test_distance_symmetric_on_ball_elements(self):
        # Cayley distance d(g, h) = word length of g^-1 h; symmetric generators
        # make it symmetric.
        G = FreeAbelian(2)
        ball = cayley_ball(G, 3)
        for g in ball.elements[::3]:
            for h in ball.elements[::4]:
                d1 = G.word_length(G.multiply(G.inverse(g), h))
                d2 = G.word_length(G.multiply(G.inverse(h), g))
                assert d1 == d2

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            cayley_ball(FreeAbelian(2), 30, max_elements=100)

    def test_finite_group_ball_saturates(self):
        G = cyclic_group(4)
        assert cayley_ball(G, 10).size == 4


@given(st.integers(0, 12))
@settings(max_examples=13, deadline=None)
def test_z1_ball_size_formula(n):
    assert cayley_ball(FreeAbelian(1), n).size == 2 * n + 1


def _fresh_group(name):
    """A new model of the named group, with an empty ball cache."""
    if name.startswith("Z^"):
        return FreeAbelian(int(name[2:]))
    if name == "cyclic-3 x cyclic-4":
        return direct_product_table(cyclic_group(3), cyclic_group(4))
    if name.startswith("cyclic-"):
        return cyclic_group(int(name[7:]))
    if name == "D98":
        return dihedral_group(98)
    return FiniteByTable(_S5.table, _S5.generators, name="S5")


_S5 = symmetric_group_5()
PREFIX_GROUPS = ["Z^1", "Z^2", "Z^3", "cyclic-1", "cyclic-2", "cyclic-7", "cyclic-3 x cyclic-4", "S5"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PREFIX_GROUPS), st.integers(1, 7), st.data())
def test_prefix_ball_is_the_fresh_ball(name, big, data):
    """A ball read off a larger cached ball equals one built on a fresh group, limit error included."""
    r = data.draw(st.integers(0, big - 1), label="r")
    group = _fresh_group(name)
    cayley_ball(group, big)
    got, want = cayley_ball(group, r), cayley_ball(_fresh_group(name), r)
    assert got.radius == want.radius == r
    assert got.elements == want.elements
    assert got.element_index == want.element_index
    assert np.array_equal(got.graph.out, want.graph.out) and not got.graph.out.flags.writeable
    assert got.graph.edge_count == want.graph.edge_count
    for tree in ("parent", "via", "layers"):
        assert np.array_equal(getattr(got, tree), getattr(want, tree)), tree
    limit = data.draw(st.integers(0, got.size), label="max_elements")
    group = _fresh_group(name)
    cayley_ball(group, big)
    if want.size > max(limit, 1):
        with pytest.raises(ResourceLimitError) as fresh:
            cayley_ball(_fresh_group(name), r, max_elements=limit)
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(str(fresh.value))}$"):
            cayley_ball(group, r, max_elements=limit)
    else:  # a build never rejects a single element
        assert cayley_ball(group, r, max_elements=limit).elements == want.elements


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PREFIX_GROUPS), st.integers(0, 7))
@example("Z^1", 50)  # a deep ball
@example("S5", 31)  # a saturated ball
@example("S5", 17)  # S5's diameter
@example("Z^4", 0)
@example("Z^4", 1)
@example("Z^4", 2)
@example("Z^4", 3)
@example("Z^4", 4)
@example("Z^2", 13)
@example("D98", 3)
@example("D98", 50)  # D98's diameter
@example("D98", 97)
@example("cyclic-1", 0)
@example("cyclic-1", 3)  # no generators
def test_ball_is_the_sorted_ball(name, r):
    """The build equals the ball enumerated and sorted by (word length, element), field by field."""
    assert_same_ball(cayley_ball(_fresh_group(name), r), ball_by_sorting(_fresh_group(name), r))


def assert_same_ball(got, want):
    """Field by field: elements, their index, the out-table and the read-only int64 tree."""
    assert got.radius == want.radius
    assert got.elements == want.elements
    assert got.element_index == want.element_index
    assert np.array_equal(got.graph.out, want.graph.out) and got.graph.out.dtype == np.int64
    assert got.graph.edge_count == want.graph.edge_count
    for tree in ("parent", "via", "layers"):
        got_tree = getattr(got, tree)
        assert np.array_equal(got_tree, getattr(want, tree)), tree
        assert got_tree.dtype == np.int64 and not got_tree.flags.writeable, tree


@pytest.mark.parametrize("rank", [30, 100])
@pytest.mark.parametrize("r", [0, 1])
def test_high_rank_ball_matches_the_product_closure(rank, r):
    """Past Z^27 the radius-1 keys leave int64; the ball is still the one a product-by-product BFS finds."""
    assert_same_ball(cayley_ball(FreeAbelian(rank), r), ball_by_products(FreeAbelian(rank), r))


@pytest.mark.parametrize("max_elements, binds", [(10**6, "1000000 elements"), (2 * 10**7, "20000000 elements")])
def test_huge_radius_is_refused_after_logarithmically_many_ball_sizes(monkeypatch, max_elements, binds):
    r = 10**9
    calls = []
    size = FreeAbelian.ball_size
    monkeypatch.setattr(FreeAbelian, "ball_size", lambda self, n: calls.append(n) or size(self, n))
    with pytest.raises(ResourceLimitError, match=f"^Cayley ball of Z\\^1 at radius {r} exceeds {binds}$"):
        cayley_ball(FreeAbelian(1), r, max_elements=max_elements)
    assert len(calls) <= 2 * math.log2(r)


LIMIT_GROUPS = ["Z^1", "Z^2", "Z^3", "Z^250", "Z^255", "Z^256", "cyclic-1", "cyclic-2", "S5", "D98"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LIMIT_GROUPS), st.integers(0, 120), st.integers(0, 3 * 10**5))
@example("Z^255", 2, 130_000)  # both limits bind at depth 2: the element limit is named
@example("Z^255", 2, 131_000)  # only the product cells bind
@example("Z^256", 3, 1000)  # the cells bind at depth 1, the elements only at depth 2
@example("cyclic-1", 5, 0)  # a trivial group never grows, so nothing binds
@example("D98", 120, 195)  # the whole group passes the limit only at its diameter
def test_limit_check_names_the_first_binding_limit(name, r, max_elements):
    """The bisection refuses exactly when, and with the message with which, a depth-by-depth check does."""
    group = _fresh_group(name)
    want = limit_error_by_depths(group, r, max_elements)
    if want is None:
        groups._check_limits(group, r, max_elements)
    else:
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(want)}$"):
            groups._check_limits(group, r, max_elements)


def test_ball_build_holds_no_second_product_table():
    """A build of Z^100 at radius 1 peaks below twice its 201 x 201 x 100 int64 product cells."""
    group = FreeAbelian(100)
    tracemalloc.start()
    try:
        cayley_ball(group, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 201 * 201 * 100 * 8


def test_ball_tree_reaches_each_element_from_its_parent():
    ball = cayley_ball(FreeAbelian(2), 3)
    for j in range(1, ball.size):
        assert ball.graph.out[ball.parent[j], ball.via[j]] == j
        assert depths(ball)[ball.parent[j]] == depths(ball)[j] - 1
    assert ball.layers.tolist() == [0, 1, 5, 13, 25]
