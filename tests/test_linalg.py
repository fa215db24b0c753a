from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cohomolab import complex as cx
from cohomolab.algebra import build_number_field
from cohomolab.cohomology import cohomology
from cohomolab.complex import index_coboundary_matrix, verify_dd_zero
from cohomolab.fileformat import parse_algebra_file
from cohomolab.linalg import (
    Echelon, Mat, axpy, column_kernel, complete_basis, first_nonzero_in_stream, kernel,
    row_to_primitive, span_dim,
)
from oracles import (
    RrefEchelon, complete_basis_greedy, from_dense, intersection, kernel_double_loop, rref,
    span_contains, span_leq, to_dense,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


def dense(rows):
    return from_dense([[F(v) for v in r] for r in rows])


def stream(mat, drawn=None):
    """mat's distinct row objects as (positions, row), in order of first
    position, the way coboundary_rows yields a d_n; each first position is
    appended to drawn, if given, as its row is drawn."""
    positions = {}  # id(row) -> (the positions holding it, row)
    for i, r in enumerate(mat.rows):
        positions.setdefault(id(r), ([], r))[0].append(i)
    for held in positions.values():
        if drawn is not None:
            drawn.append(held[0][0])
        yield held


def first_nonzero_of_product(a, b):
    """The streamed check of a @ b, a's rows drawn from stream(a)."""
    return first_nonzero_in_stream(stream(a), b.rows)


def test_mat_roundtrip():
    m = dense([[1, 0, -2], [0, 0, 0], [F(1, 3), 5, 0]])
    assert to_dense(m) == [[F(1), F(0), F(-2)],
                            [F(0), F(0), F(0)],
                            [F(1, 3), F(5), F(0)]]
    identity = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert first_nonzero_of_product(identity, m) == (0, 0, 1)
    assert first_nonzero_of_product(identity, dense([[0, 0], [0, 0], [0, 0]])) is None


def test_matmul():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert to_dense(a.matmul(b)) == [[F(2), F(1)], [F(4), F(3)]]
    assert first_nonzero_of_product(a, dense([[0, 0], [0, 0]])) is None
    # row 0 cancels to zero, so the first nonzero entry is in row 1
    assert first_nonzero_of_product(dense([[1, -1], [0, 3]]), dense([[1, 0], [1, 0]])) == \
        (1, 0, 3)


def test_matmul_shape_check():
    with pytest.raises(AssertionError):
        dense([[1, 2]]).matmul(dense([[1, 2]]))


def test_transpose():
    m = dense([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert to_dense(t) == [[F(1), F(4)], [F(2), F(5)], [F(3), F(6)]]


def test_row_to_primitive():
    assert row_to_primitive({0: F(1, 2), 2: F(-3, 4)}) == {0: F(2), 2: F(-3)}
    assert row_to_primitive({1: F(-2), 3: F(4)}) == {1: F(1), 3: F(-2)}
    assert row_to_primitive({}) == {}


def test_rref_canonical():
    m1 = dense([[1, 2, 3], [4, 5, 6]])
    m2 = dense([[4, 5, 6], [5, 7, 9], [1, 2, 3]])
    assert rref(m1.rows) == rref(m2.rows)
    assert span_dim(m1.rows) == span_dim(m2.rows) == 2


def test_rank_examples():
    assert span_dim(dense([[0, 0], [0, 0]]).rows) == 0
    assert span_dim(dense([[1, 0], [0, 1]]).rows) == 2
    assert span_dim(dense([[1, 2], [2, 4], [3, 6]]).rows) == 1
    assert span_dim(dense([[F(1, 7), F(2, 7)], [F(3, 5), F(4, 5)]]).rows) == 2


def test_kernel():
    m = dense([[1, 2, 3], [4, 5, 6]])
    basis = kernel(m)
    assert len(basis) == 1
    v = basis[0]
    for row in to_dense(m):
        assert sum(row[j] * v.get(j, F(0)) for j in range(3)) == 0
    assert kernel(dense([[1, 0], [0, 1]])) == []


def test_rank_nullity():
    m = dense([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    assert span_dim(m.rows) + len(kernel(m)) == m.ncols


def test_echelon_incremental():
    e = Echelon()
    assert e.add({0: F(1), 1: F(1)})
    assert not e.add({0: F(2), 1: F(2)})
    assert e.add({2: F(5)})
    assert e.rank == 2
    assert e.contains({0: F(1), 1: F(1), 2: F(-1)})
    assert not e.contains({0: F(1)})


def test_span_helpers():
    a = [{0: F(1)}, {1: F(1)}]
    b = [{0: F(1), 1: F(2)}]
    assert span_leq(b, a)
    assert not span_leq(a, b)
    assert span_dim(a + b) == 2


def test_intersection():
    # span{(1,0,0),(0,1,0)} ∩ span{(0,1,0),(0,0,1)} = span{(0,1,0)}
    u = [{0: F(1)}, {1: F(1)}]
    w = [{1: F(1)}, {2: F(1)}]
    inter = intersection(u, w, 3)
    assert len(inter) == 1
    assert span_contains(inter, {1: F(7)})
    assert intersection([{0: F(1)}], [{1: F(1)}], 2) == []


def test_complete_basis():
    outer = kernel(dense([[1, 1, 1]]))  # free columns 1 and 2
    assert outer == [{0: 1, 1: -1}, {0: 1, 2: -1}]
    inner = [{0: F(2), 1: F(-1), 2: F(-1)}]  # outer[0] + outer[1]
    extra = complete_basis(inner, outer)
    assert extra == [outer[0]]
    assert span_dim(inner + extra) == 2
    assert complete_basis(outer, outer) == []


matrices = st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
             min_size=3, max_size=3),
    min_size=1, max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity_property(rows):
    m = from_dense(rows)
    assert span_dim(m.rows) + len(kernel(m)) == m.ncols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilated(rows):
    m = from_dense(rows)
    for v in kernel(m):
        for row in rows:
            assert sum(row[j] * v.get(j, F(0)) for j in range(len(row))) == 0


sparse_scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
).filter(bool)


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 9))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), sparse_scalars,
                                         max_size=4),
                         max_size=7))
    return Mat(len(rows), ncols, rows)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_double_loop(m):
    got, want = kernel(m), kernel_double_loop(m)
    # equal vectors, built in the same key order
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


@st.composite
def column_sets(draw):
    """A height and small int columns over it, among them zero columns,
    repeats of an earlier column and combinations of two earlier ones."""
    height = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["drawn", "zero", "repeat", "combination"]))
        if kind == "repeat" and columns:
            columns.append(dict(draw(st.sampled_from(columns))))
        elif kind == "combination" and columns:
            col = {}
            for _ in range(2):
                axpy(col, draw(st.integers(-3, 3)), draw(st.sampled_from(columns)))
            columns.append(col)
        elif kind == "zero":
            columns.append({})
        else:
            columns.append(draw(st.dictionaries(st.integers(0, height - 1),
                                                st.integers(-4, 4).filter(bool), max_size=4)))
    return height, columns


@settings(max_examples=300, deadline=None)
@given(column_sets())
@example((3, []))
@example((3, [{}]))
@example((3, [{0: 2, 2: -4}]))
@example((2, [{0: 1}, {0: 1}, {}, {0: 1, 1: 1}, {1: -1}]))
def test_column_kernel_is_the_kernel_of_the_columns(case):
    """The tag-led rows of one echelon of the tagged columns, read in
    reverse with their lowest entries made positive, are kernel's rows
    of the matrix with those columns, the columns drawn one at a time."""
    height, columns = case
    drawn = []

    def one_at_a_time():
        for col in columns:
            drawn.append(col)
            yield col

    assert column_kernel(one_at_a_time(), len(columns), height) == \
        kernel(Mat.from_columns(height, columns))
    assert drawn == columns


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_kernel_free_columns(m):
    # row i is nonzero at its free column max(row), and no other row is;
    # the free columns rise and are exactly the non-pivot columns
    basis = kernel(m)
    free = [max(v) for v in basis]
    assert free == sorted(set(free))
    assert set(free) == set(range(m.ncols)) - set(Echelon(m.rows).pivots)
    for i, f in enumerate(free):
        assert [j for j, v in enumerate(basis) if f in v] == [i]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_complete_basis_matches_greedy(data):
    # inner: combinations of the canonical kernel basis, zero and repeats included
    z = kernel(data.draw(sparse_matrices()))
    inner = []
    for _ in range(data.draw(st.integers(0, 6))):
        coeffs = data.draw(st.lists(st.one_of(st.just(0), sparse_scalars),
                                    min_size=len(z), max_size=len(z)))
        acc = {}
        for c, v in zip(coeffs, z):
            axpy(acc, c, v)
        inner.append(acc)
    assert complete_basis(inner, z) == complete_basis_greedy(inner, z)


def combination(coeffs, rows):
    acc = {}
    for c, r in zip(coeffs, rows):
        axpy(acc, c, r)
    return acc


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_reduce_is_linear_and_zero_exactly_on_span(data):
    m = data.draw(sparse_matrices())
    ech = Echelon(m.rows)
    vectors = st.dictionaries(st.integers(0, m.ncols - 1), sparse_scalars, max_size=4)
    x, y = data.draw(vectors), data.draw(vectors)
    a, b = data.draw(sparse_scalars), data.draw(sparse_scalars)
    assert ech.reduce(combination((a, b), (x, y))) == \
        combination((a, b), (ech.reduce(x), ech.reduce(y)))
    # zero exactly on the span: against the rank, and on combinations of the rows
    for v in (x, y):
        assert (not ech.reduce(v)) == (span_dim(m.rows + [v]) == ech.rank) == ech.contains(v)
    coeffs = data.draw(st.lists(sparse_scalars, min_size=m.nrows, max_size=m.nrows))
    assert ech.reduce(combination(coeffs, m.rows)) == {}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_reduce_follows_every_add(data):
    """reduce keeps its lcm of the pivot leads between calls; after each add,
    reduced vectors equal those of an echelon built fresh from the same rows."""
    m = data.draw(sparse_matrices())
    vectors = st.dictionaries(st.integers(0, m.ncols - 1), sparse_scalars, max_size=4)
    ech = Echelon()
    for i, row in enumerate(m.rows):
        v = data.draw(vectors)
        assert ech.reduce(v) == Echelon(m.rows[:i]).reduce(v)
        ech.add(row)
        assert ech.reduce(v) == Echelon(m.rows[:i + 1]).reduce(v)


# Shared rows: one dict object at several row positions, as the index-level
# coboundary stores equal rows in even degree.  Every check compares with
# the same matrices written without sharing.

entries = st.integers(-3, 3).filter(bool).map(F)


def shared_rows(draw, nrows, ncols):
    """nrows rows over ncols columns, drawn from a pool of at most 3 dicts."""
    pool = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries),
                         min_size=1, max_size=3))
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                           min_size=nrows, max_size=nrows))]


@st.composite
def shared_products(draw):
    """(a, b) with repeated row objects in both, and left rows whose two
    coefficients on one shared right row cancel."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    b = Mat(n, m, shared_rows(draw, n, m))
    a_rows = shared_rows(draw, draw(st.integers(1, 5)), n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if b.rows[i] is b.rows[j]]
    if pairs:
        i, j = draw(st.sampled_from(pairs))
        v = draw(entries)
        cancel = {i: v, j: -v}
        rest = {k: draw(entries) for k in range(n) if k not in (i, j)}
        a_rows += [cancel, {**rest, **cancel}]
    return Mat(len(a_rows), n, a_rows), b


def plain_product(a, b):
    da, db = to_dense(a), to_dense(b)
    return [[sum(da[i][k] * db[k][j] for k in range(a.ncols)) for j in range(b.ncols)]
            for i in range(a.nrows)]


def unshared(m):
    return Mat(m.nrows, m.ncols, [dict(r) for r in m.rows])


@settings(max_examples=150, deadline=None)
@given(shared_products())
def test_matmul_shared_rows_matches_triple_loop(ab):
    a, b = ab
    prod = a.matmul(b)
    assert to_dense(prod) == plain_product(a, b)
    assert all(v for r in prod.rows for v in r.values())


def first_nonzero_in_row_order(m):
    """(i, j, value) of m's first nonzero entry, rows then columns, or None."""
    for i, r in enumerate(m.rows):
        if r:
            j = min(r)
            return i, j, r[j]
    return None


@st.composite
def products_led_by_zero_rows(draw):
    """Small int (a, b), rows shared in both, where a's first rows have a
    zero product: empty rows, and rows whose two coefficients on one
    shared row of b cancel; the rows after them are drawn freely."""
    ints = st.integers(-3, 3).filter(bool)
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    pool = draw(st.lists(st.dictionaries(st.integers(0, m - 1), ints), min_size=1, max_size=3))
    b_rows = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                             min_size=n, max_size=n))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if b_rows[i] is b_rows[j]]
    zero_rows = [{}]
    for i, j in pairs:
        v = draw(ints)
        zero_rows.append({i: v, j: -v})
    a_pool = zero_rows + draw(st.lists(st.dictionaries(st.integers(0, n - 1), ints),
                                       min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(zero_rows) - 1), max_size=4)) + \
        draw(st.lists(st.integers(0, len(a_pool) - 1), min_size=1, max_size=5))
    a_rows = [a_pool[i] for i in picks]
    return Mat(len(a_rows), n, a_rows), Mat(n, m, b_rows)


@settings(max_examples=200, deadline=None)
@given(products_led_by_zero_rows())
def test_first_nonzero_of_product_matches_the_full_product(ab):
    """One distinct row at a time, the streamed check finds the entry a scan
    of a.matmul(b) in row order finds, on int matrices with shared and
    cancelling rows.  It stops drawing rows at that entry; asked to place
    them, it draws every row and places each object at all its positions."""
    a, b = ab
    expected = first_nonzero_in_row_order(a.matmul(b))
    drawn = []
    assert first_nonzero_in_stream(stream(a, drawn), b.rows) == expected
    firsts = [positions[0] for positions, _ in stream(a)]
    assert drawn == [i for i in firsts if expected is None or i <= expected[0]]
    placed = [None] * a.nrows
    assert first_nonzero_in_stream(stream(a), b.rows, placed) == expected
    assert all(p is r for p, r in zip(placed, a.rows))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_elimination_of_shared_rows_matches_copies(data):
    ncols = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(1, 8))
    m = Mat(nrows, ncols, shared_rows(data.draw, nrows, ncols))
    copy = unshared(m)
    assert kernel(m) == kernel(copy)
    assert span_dim(m.rows) == span_dim(copy.rows)
    assert rref(m.rows) == rref(copy.rows)
    assert Echelon(dict(r) for r in m.rows).rank == Echelon(m.rows).rank


def test_echelon_generator_of_fresh_rows():
    # each fresh dict is dropped once fed, so CPython may hand its address,
    # and so its id(), to a later one; none of them may be skipped
    rows = [r for j in range(40) for r in ({0: F(1)}, {j: F(1)})]
    assert Echelon(dict(r) for r in rows).rank == 40
    assert Echelon(r for r in rows + rows).rank == 40


# The integer Echelon against the Fraction RREF of tests/oracles.py, on
# int, Fraction and mixed entries, with row objects shared between positions.

int_entries = st.integers(-60, 60).filter(bool)
fraction_entries = st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool)


@st.composite
def elimination_inputs(draw):
    """A matrix whose rows are drawn from a pool, so that one row object
    may stand at several positions."""
    ncols = draw(st.integers(1, 8))
    values = draw(st.sampled_from([int_entries, fraction_entries, sparse_scalars]))
    pool = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), values, max_size=5),
                         min_size=1, max_size=7))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=9))
    return Mat(len(picks), ncols, [pool[i] for i in picks])


def items(rows):
    """Each row's entries in key order."""
    return [list(r.items()) for r in rows]


def draw_combinations(data, rows, count):
    """count combinations of rows, zero and repeated coefficients included."""
    coefficients = st.lists(st.one_of(st.just(0), sparse_scalars),
                            min_size=len(rows), max_size=len(rows))
    return [combination(data.draw(coefficients), rows) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(elimination_inputs(), st.data())
def test_integer_echelon_matches_the_fraction_rref(m, data):
    ech, ref = Echelon(m.rows), RrefEchelon(m.rows)
    assert ech.rank == ref.rank == span_dim(m.rows)
    assert list(ech.pivots) == list(ref.pivots)
    assert ech.rows() == ref.rows() == rref(m.rows)
    # each pivot row is the primitive int multiple, lead > 0, of its RREF row
    for c, p in ech.pivots.items():
        assert all(type(v) is int for v in p.values())
        assert gcd(*p.values()) == 1 and p[c] > 0
        assert p == {k: p[c] * v for k, v in ref.pivots[c].items()}
    assert items(kernel(m)) == items(kernel_double_loop(m))
    # reduce is D times the RREF reduction, D the lcm of the pivot leads
    scale = lcm(*(p[c] for c, p in ech.pivots.items()))
    vectors = st.dictionaries(st.integers(0, m.ncols - 1), sparse_scalars, max_size=4)
    for v in [data.draw(vectors)] + draw_combinations(data, m.rows, 1):
        assert ech.reduce(v) == {c: scale * x for c, x in ref.reduce(v).items()}
        assert ech.contains(v) == ref.contains(v)
    z = kernel(m)
    inner = draw_combinations(data, z, data.draw(st.integers(0, 4)))
    assert complete_basis(inner, z) == complete_basis_greedy(inner, z)


class CountingEchelon(Echelon):
    """An Echelon that counts the rows its constructor feeds to add."""

    def __init__(self, rows=()):
        self.fed = 0
        super().__init__(rows)

    def add(self, row):
        self.fed += 1
        return super().add(row)


@settings(max_examples=200, deadline=None)
@given(elimination_inputs(), st.data())
def test_echelon_feeds_each_distinct_row_value_once(m, data):
    """Rows plus fresh-dict copies of them by value (keys reordered, ints
    as Fractions, zero rows too), in a drawn order, give the pivots, in
    the same insertion order, and the rows() of an Echelon fed each
    distinct nonzero row once, and the Fraction RREF's; the constructor
    calls add once per distinct nonzero value."""
    copies = [dict(reversed([(c, F(v)) for c, v in m.rows[i].items()]))
              for i in data.draw(st.lists(st.integers(0, max(len(m.rows) - 1, 0)),
                                          max_size=9 if m.rows else 0))]
    fed = data.draw(st.permutations(m.rows + copies + [{}, {}]))
    once = []
    for r in fed:
        if r and r not in once:
            once.append(r)
    ech, single, ref = CountingEchelon(fed), Echelon(once), RrefEchelon(fed)
    assert ech.fed == len(once)
    assert list(ech.pivots.items()) == list(single.pivots.items())
    assert ech.rows() == single.rows() == ref.rows()
    assert list(ech.pivots) == list(ref.pivots)


@settings(max_examples=150, deadline=None)
@given(elimination_inputs(), st.data())
def test_elimination_changes_no_input_row(m, data):
    before = items(m.rows)
    ech = Echelon(m.rows)
    ech.reduce(m.rows[0] if m.rows else {})
    z = kernel(m)
    inner = draw_combinations(data, z, data.draw(st.integers(0, 4)))
    z_before, inner_before = items(z), items(inner)
    complete_basis(inner, z)
    Echelon(inner).add(z[0] if z else {})
    assert items(m.rows) == before
    assert items(z) == z_before and items(inner) == inner_before


@pytest.mark.parametrize("name", ["cubic2", "qhalf", "dense4"])
def test_cohomology_changes_no_cached_index_matrix_row(name, monkeypatch):
    """An index matrix shares row dicts between positions; eliminating it,
    or multiplying by it, must leave every row of every d_n that cohomology
    or verify_dd_zero built as it was built, to the end of the command:
    each row is recorded as coboundary_rows yields it, whether it is then
    placed in a matrix or only checked as it streams."""
    spec = parse_algebra_file(str(FIXTURES / f"{name}.alg"))
    built = []  # (row, its entries as built)
    real = cx.coboundary_rows

    def snapshot(spec, n):
        for positions, row in real(spec, n):
            built.append((row, list(row.items())))
            yield positions, row

    monkeypatch.setattr(cx, "coboundary_rows", snapshot)
    commands = [lambda degree=degree: cohomology(spec, degree) for degree in range(3)]
    commands.append(lambda: verify_dd_zero(spec, 2))
    for command in commands:
        built.clear()
        command()
        assert built
        assert all(list(row.items()) == entries for row, entries in built)


@pytest.mark.parametrize("coefficients", [[3, -4, 2, 1, 1], [-2, 0, 0, 0, 0, 1]],
                         ids=["dense4", "t5m2"])
def test_kernel_of_d_4_matches_the_fraction_rref(coefficients):
    # the frontier: the dense quartic's RREF grows large Fractions, and
    # t5m2's d_4 has 3125 columns; the integer Echelon reaches the same
    # canonical kernel, row for row
    mat = index_coboundary_matrix(build_number_field(coefficients), 4)
    assert items(kernel(mat)) == items(kernel_double_loop(mat))
