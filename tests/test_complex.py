import gc
import itertools
import math
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cohomolab import complex as cx, linalg
from cohomolab.algebra import (
    AlgebraSpec, basis_element, build_atomic, build_number_field, multiply,
)
from cohomolab.complex import (
    DEFAULT_DEGREE_CAP, DegreeCapExceeded, TAG_BAND, TAG_FULL, TAG_IDEAL,
    apply_d, coboundary, coboundary_images, coboundary_rows, index_coboundary_matrix,
    index_images, lift, swap_last_two, tag_coords, verify_dd_zero,
)
from cohomolab.cohomology import (
    _chain_map_fn, audit_chain_map, build_J_even, build_J_odd, build_K, cocycle_space,
    cohomology,
)
from cohomolab.fileformat import parse_algebra_file
from cohomolab.operators import classify
from cohomolab.multilinear import from_flat, tuple_index
from conftest import elem, mult_cochain, psi_f_of_ab, psi_f_times_b
from oracles import (
    apply_matrix, coeff, diagonal_coboundary, evaluate, from_coeff_function, images_by_tuples,
    index_matrix_by_tuples, intersection, is_zero, naive_coboundary_images,
    per_permutation_coboundary_images, rebase, rref,
)

F = Fraction
FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.alg"))


def test_d0_is_composition_with_multiplication(qsqrt2):
    # d_0(f)(x1, x2) = f(x1 x2)
    f = from_coeff_function(qsqrt2, 1, lambda idx: elem(idx[0], 1))
    df = apply_d(qsqrt2, f)
    for x, y in itertools.product([elem(1, 0), elem(0, 1), elem(2, -3)], repeat=2):
        assert evaluate(df, [x, y]) == evaluate(f, [multiply(qsqrt2, x, y)])


def test_d1_example(qsqrt2):
    # d_1(Psi)(x1,x2,x3) = Psi(x1 x2, x3) - Psi(x1 x3, x2)
    psi = psi_f_times_b(qsqrt2)
    dpsi = apply_d(qsqrt2, psi)
    one, r2 = elem(1, 0), elem(0, 1)
    assert evaluate(dpsi, [one, r2, one]) == elem(1, 0)
    for x1, x2, x3 in itertools.product([one, r2, elem(2, 1)], repeat=3):
        expect = tuple(
            a - b for a, b in zip(evaluate(psi, [multiply(qsqrt2, x1, x2), x3]),
                                  evaluate(psi, [multiply(qsqrt2, x1, x3), x2])))
        assert evaluate(dpsi, [x1, x2, x3]) == expect


def test_d1_kills_symmetric_product_composites(qsqrt2):
    # Psi(a,b) = f(ab) has d_1 = 0 since Psi(x1x2, x3) is fully symmetric
    assert is_zero(apply_d(qsqrt2, psi_f_of_ab(qsqrt2)))
    assert is_zero(apply_d(qsqrt2, mult_cochain(qsqrt2)))


def test_d2_full_permutation_sum_oracle(qsqrt2):
    """Check d_2 at one point against an explicit 24-term expansion.

    Phi = K(Psi) with Psi(a,b) = f(ab); at the all-sqrt2 tuple every
    permutation contributes Phi(2, sqrt2, sqrt2) = 2 f(2) - sqrt2 f(2 sqrt2)
    = -2 sqrt2, so the sum is -48 sqrt2.
    """
    k_psi = apply_matrix(build_K(qsqrt2), psi_f_of_ab(qsqrt2), 3)
    d2 = apply_d(qsqrt2, k_psi)
    r2 = elem(0, 1)
    total = elem(0, 0)
    for sigma in itertools.permutations(range(4)):
        args = [r2, r2, r2, r2]
        first = multiply(qsqrt2, args[sigma[0]], args[sigma[1]])
        term = evaluate(k_psi, [first, args[sigma[2]], args[sigma[3]]])
        total = tuple(a + b for a, b in zip(total, term))
    assert total == elem(0, -48)
    assert evaluate(d2, [r2, r2, r2, r2]) == elem(0, -48)


def test_apply_d_grouped_matches_naive(qsqrt2, atomic3):
    for spec in (qsqrt2, atomic3):
        psi = from_coeff_function(
            spec, 3,
            lambda idx: basis_element(spec.dim, (idx[0] + 2 * idx[1] + idx[2])
                                      % spec.dim))
        (naive,) = naive_coboundary_images(spec, 2, [psi.flatten()])
        assert apply_d(spec, psi) == from_flat(spec.dim, 4, naive)


ORACLE_CASES = [(fix, n)
                for fix in ("q", "qsqrt2", "cubic2", "atomic2", "atomic3", "atomic4")
                for n in range(4) if fix != "atomic4" or n <= 2] + [("qsqrt2", 5)]


def naive_or_tuple_images(spec, n, rows):
    """The per-permutation sum at even n >= 2, and the tuple-level build of
    d_n at n = 0 and odd n: neither runs index_images, which both
    coboundary_images and the naive evaluator apply d_n with."""
    if n >= 2 and n % 2 == 0:
        return per_permutation_coboundary_images(spec, n, rows)
    return images_by_tuples(spec, n, rows)


@pytest.mark.parametrize("fix,n", ORACLE_CASES)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_apply_d_matches_naive_oracle(fix, n, data, request):
    """The index-matrix operator agrees with the per-permutation evaluator at
    even n >= 2, and with the tuple-level build of d_n elsewhere."""
    spec = request.getfixturevalue(fix)
    entries = data.draw(st.dictionaries(
        st.integers(0, spec.dim ** (n + 2) - 1),
        st.integers(-3, 3).filter(bool), max_size=6))
    f = from_flat(spec.dim, n + 1, {c: F(v) for c, v in entries.items()})
    (naive,) = naive_or_tuple_images(spec, n, [f.flatten()])
    assert apply_d(spec, f) == from_flat(spec.dim, n + 2, naive)


@pytest.mark.parametrize("fix,n", [("qsqrt2", 2), ("cubic2", 2), ("atomic3", 1),
                                   ("cubic2", 0), ("atomic3", 3), ("qsqrt2", 4)])
def test_naive_images_all_rows_and_tuple_subsets(fix, n, request):
    """The fast images of several rows at once match the oracles'."""
    spec = request.getfixturevalue(fix)
    d = spec.dim
    assert coboundary_images(spec, n, []) == []
    rows = [{(7 * i + j) % d ** (n + 2): F(j - i) for j in range(i + 2)} for i in range(4)]
    assert naive_or_tuple_images(spec, n, rows) == coboundary_images(spec, n, rows)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_the_naive_evaluator_refuses_all_but_even_degrees(qsqrt2, n):
    """The permutation sum is d_n at even n >= 2 only; no other n has one."""
    with pytest.raises(ValueError, match=f"even n >= 2 only, got n = {n}$"):
        naive_coboundary_images(qsqrt2, n, [{0: 1}])


def test_the_naive_evaluator_forms_one_image_per_row_drawn(qsqrt2):
    """The term table is built at the call; each row is read only when its
    image is drawn, so the audit holds one naive image at a time."""
    drawn = []

    def rows():
        for i in range(3):
            drawn.append(i)
            yield {5 * i: F(i + 1)}

    images = naive_coboundary_images(qsqrt2, 2, rows())
    assert drawn == []
    first = next(images)
    assert drawn == [0]
    assert [first, *images] == coboundary_images(qsqrt2, 2, [{5 * i: F(i + 1)} for i in range(3)])
    assert drawn == [0, 1, 2]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("name,n", [("K", 1), ("Jodd", 2)])
def test_counting_oracle_equals_per_permutation_sum(path, name, n):
    """naive_coboundary_images, which counts equal permutations, equals the
    sum over every permutation at g = 2 and g = 4: on the images of ker d_1
    that the audit compares, and on rows that are no cocycles."""
    spec = parse_algebra_file(str(path))
    d = spec.dim
    fn, g = _chain_map_fn(name, n)
    size = d ** (g + 2)
    rows = index_images(1, fn(spec), cocycle_space(spec, 1, TAG_FULL)) + [
        {0: 1}, {size - 1: F(-2, 3)}, {(7 * i) % size: i - 2 for i in range(5) if i != 2}]
    assert list(naive_coboundary_images(spec, g, rows)) == \
        per_permutation_coboundary_images(spec, g, rows)


def assert_stream_order(spec: AlgebraSpec, n: int, matrix):
    """coboundary_rows(spec, n) yields matrix's distinct rows, each once, in
    order of first position, each with its least position first and with
    every position holding it, and the positions partition the rows: the
    order verify_dd_zero's "first nonzero in row order" relies on."""
    stream = list(coboundary_rows(spec, n))
    firsts = [positions[0] for positions, _ in stream]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    assert all(positions[0] == min(positions) for positions, _ in stream)
    assert sorted(i for positions, _ in stream for i in positions) == \
        list(range(spec.dim ** (n + 2)))
    assert len(stream) == len({id(r) for r in matrix.rows})
    assert all(matrix.rows[i] == row for positions, row in stream for i in positions)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_odd_index_matrix_equals_tuple_build(path):
    """The flat-index build of odd d_n equals the one summed per output
    tuple, and for n >= 3 the rows of (a, b, r) and (b, a, r) are one dict;
    the stream it is placed from is in row order."""
    spec = parse_algebra_file(str(path))
    d = spec.dim
    for n in (1, 3, 5) if d <= 3 else (1, 3):
        matrix = index_coboundary_matrix(spec, n)
        assert matrix == index_matrix_by_tuples(spec, n)
        assert_stream_order(spec, n, matrix)
        if n >= 3:
            assert len({id(r) for r in matrix.rows}) == d * (d + 1) // 2 * d ** n


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_even_index_matrix_equals_tuple_build(path):
    """The per-multiset build of even d_n equals the one summed over every
    permutation of each output tuple, and its rows are one dict per
    multiset of output indices: up to d_4 at d <= 2, and on cubic2 and
    atomic3, whose d_4 full-complex runs.  The stream it is placed from,
    one row per multiset, is in row order."""
    spec = parse_algebra_file(str(path))
    d = spec.dim
    for n in (0, 2, 4) if d <= 2 or path.stem in ("cubic2", "atomic3") else (0, 2):
        matrix = index_coboundary_matrix(spec, n)
        assert matrix == index_matrix_by_tuples(spec, n)
        assert_stream_order(spec, n, matrix)
        if n:
            assert len({id(r) for r in matrix.rows}) == math.comb(d + n + 1, n + 2)


def distinct_rows(d: int, n: int) -> int:
    """The row objects of the index-level d_n: one per output tuple at
    n <= 1, one per pair of tuples that differ in their first two indices
    at odd n >= 3, and one per multiset at even n >= 2."""
    if n <= 1:
        return d ** (n + 2)
    return d * (d + 1) // 2 * d ** n if n % 2 else math.comb(d + n + 1, n + 2)


@st.composite
def rebased_small_fields(draw):
    """Q[t]/(p), p monic of degree 1 to 3 with coefficients in [-2, 2] of
    denominator at most 2, in the power basis or, drawn alike, in the
    basis of the columns of an invertible P."""
    d = draw(st.integers(1, 3))
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    spec = build_number_field(draw(st.lists(entries, min_size=d, max_size=d)) + [1])
    if draw(st.booleans()):
        P = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
        assume(sympy.Matrix(P).det() != 0)
        spec = rebase(spec, P)
    return spec


@settings(max_examples=25, deadline=None)
@given(rebased_small_fields())
def test_index_matrix_equals_tuple_build_in_any_basis(spec):
    """d_n equals the one summed per output tuple, at n <= 3 and at n = 4
    for d <= 2, with the fixtures' pattern of shared rows, streamed in
    row order."""
    d = spec.dim
    for n in range(5 if d <= 2 else 4):
        matrix = index_coboundary_matrix(spec, n)
        assert matrix == index_matrix_by_tuples(spec, n)
        assert_stream_order(spec, n, matrix)
        assert len({id(r) for r in matrix.rows}) == distinct_rows(d, n)


def test_swap_last_two_swaps_the_last_two_indices():
    for d in range(1, 5):
        for m in range(2, 6):
            for t in itertools.product(range(d), repeat=m):
                i = tuple_index(t, d)
                assert swap_last_two(i, d) == tuple_index(t[:-2] + (t[-1], t[-2]), d)
                assert swap_last_two(swap_last_two(i, d), d) == i


def counted_builds(monkeypatch, name="index_coboundary_matrix") -> list:
    """Record each call to the builder complex.<name> for the rest of the
    test: the returned list gets its (spec, n)."""
    calls = []
    real = getattr(cx, name)

    def counting(spec, n):
        calls.append((spec, n))
        return real(spec, n)

    monkeypatch.setattr(cx, name, counting)
    return calls


def test_no_rows_build_no_matrix(monkeypatch):
    """coboundary_images of no rows builds no d_n."""
    spec = build_number_field([-2, 0, 0, 0, 1])
    calls = counted_builds(monkeypatch)
    streams = counted_builds(monkeypatch, "coboundary_rows")
    assert coboundary_images(spec, 3, []) == []
    assert calls == streams == []


def test_applying_d_places_no_index_matrix(monkeypatch, atomic4):
    """Applying d_n goes straight from its row stream: the fast images place
    no d_n, a band complex's coboundaries place only Q's 1 x 1 d_n, none of
    the algebra's own, and an audit places only d_1, for ker d_1."""
    quartic = build_number_field([-2, 0, 0, 0, 1])
    builds = counted_builds(monkeypatch)
    rows = [{(5 * i + 3) % 4 ** 4: F(i - 1, 2)} for i in range(3)]
    assert coboundary_images(quartic, 2, rows) == images_by_tuples(quartic, 2, rows)
    assert builds == []
    cohomology(atomic4, 3, TAG_BAND)
    assert [(spec.dim, n) for spec, n in builds] == [(1, 3), (1, 2)]
    builds.clear()
    for name, n in (("K", 1), ("Jodd", 2)):
        audit_chain_map(quartic, name, n)
        assert [m for _, m in builds] == [1]
        builds.clear()


SCALARS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(bool)


@st.composite
def index_operators(draw):
    """(d, ncols, stream, dense): an index-level operator A with int and
    Fraction entries, as a stream of (positions, row) pairs whose positions
    partition range(m), one row shared by the positions with one drawn
    label, adjacent or not, and as the list of the row at each position."""
    d = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    groups = {}  # label -> its positions, in order of first position
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    stream = [(positions, draw(st.dictionaries(st.integers(0, ncols - 1), SCALARS,
                                               max_size=ncols)))
              for positions in groups.values()]
    dense = [None] * len(labels)
    for positions, row in stream:
        for i in positions:
            dense[i] = row
    return d, ncols, stream, dense


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_index_images_equals_a_dense_triple_loop(data):
    """index_images(d, stream, rows) is (A (x) I_d) v for each v in rows, v
    in any batch, the empty one included, summed entry by entry."""
    d, ncols, stream, dense = data.draw(index_operators())
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, ncols * d - 1), SCALARS,
                                              max_size=6), max_size=3))
    expected = [{i * d + k: v for i, a in enumerate(dense) for k in range(d)
                 if (v := sum(a.get(c, 0) * x.get(c * d + k, 0) for c in range(ncols)))}
                for x in rows]
    assert cx.index_images(d, stream, rows) == expected


def test_index_images_reads_rows_shared_apart():
    """A row shared by positions 0 and 2, not adjacent, is written at both,
    and an empty batch gives no images."""
    stream = [([0, 2], {0: 2, 1: F(-1, 2)}), ([1], {1: 3})]
    assert cx.index_images(2, stream, [{0: 1, 3: 4}]) == [{0: 2, 4: 2, 1: -2, 5: -2, 3: 12}]
    assert cx.index_images(2, stream, []) == []


@pytest.mark.parametrize("fix", ["atomic2", "atomic3", "atomic4"])
def test_band_cocycles_are_full_cocycles_in_band(fix, request):
    """Band cocycles, against a Zassenhaus intersection of two independent spaces."""
    spec = request.getfixturevalue(fix)
    d = spec.dim
    for n in range(3):
        # the diagonal cochains (b_k, ..., b_k) -> b_k
        band = [{tuple_index((k,) * (n + 1), d) * d + k: F(1)} for k in range(d)]
        full = cocycle_space(spec, n, TAG_FULL)
        expected = rref(intersection(full, band, spec.dim ** (n + 2)))
        assert cocycle_space(spec, n, TAG_BAND) == expected


def test_apply_d_linear(qsqrt2):
    a = psi_f_times_b(qsqrt2)
    b = psi_f_of_ab(qsqrt2)
    combo = from_coeff_function(
        qsqrt2, 2,
        lambda idx: tuple(3 * x - y for x, y in zip(coeff(a, idx), coeff(b, idx))))
    da, db, dc = (apply_d(qsqrt2, m) for m in (a, b, combo))
    for idx in itertools.product(range(2), repeat=3):
        assert coeff(dc, idx) == tuple(
            3 * x - y for x, y in zip(coeff(da, idx), coeff(db, idx)))


def test_index_matrix_shapes_and_expansion(qsqrt2):
    m = index_coboundary_matrix(qsqrt2, 1)
    assert (m.nrows, m.ncols) == (8, 4)
    assert coboundary(qsqrt2, 1, TAG_FULL).rows == m.rows
    flat = lift(qsqrt2, 2, TAG_FULL, m.rows)
    assert len(flat) == 16


def test_coboundary_matrix_columns_are_images(qsqrt2):
    """The coboundary lifted to flat coordinates applies d entry by entry."""
    flat = lift(qsqrt2, 2, TAG_FULL, coboundary(qsqrt2, 1, TAG_FULL).rows)
    psi = psi_f_times_b(qsqrt2)
    vec = psi.flatten()
    image = apply_d(qsqrt2, psi).flatten()
    for i, row in enumerate(flat):
        got = sum(v * vec.get(j, F(0)) for j, v in row.items())
        assert got == image.get(i, F(0))


def _diagonal_constant(n):
    """d_n on the diagonal cochains of an atomic algebra is this times I."""
    if n == 0:
        return 1
    return 0 if n % 2 else math.factorial(n + 2)


@pytest.mark.parametrize("tag", [TAG_BAND, TAG_IDEAL])
@pytest.mark.parametrize("fix", ["atomic2", "atomic3", "atomic4"])
def test_diagonal_coboundary_is_scalar(fix, tag, request):
    """Closed form: c_0 = 1, c_n = 0 for odd n, c_n = (n+2)! for even n >= 2.
    The tag complex's d_n is Q's 1 x 1 d_n, [c_n], which each atom carries."""
    spec = request.getfixturevalue(fix)
    for n in range(5):
        c = _diagonal_constant(n)
        assert coboundary(spec, n, tag).rows == [{0: c} if c else {}]
    for degree in range(5):
        assert cohomology(spec, degree, tag=tag, cap=6).dim_H == 0


def test_tag_coords(qsqrt2, atomic3):
    assert tag_coords(qsqrt2, 1, TAG_FULL) is None
    diagonal = [tuple_index((k, k), 3) * 3 + k for k in range(3)]
    assert tag_coords(atomic3, 1, TAG_IDEAL) == diagonal == [0, 13, 26]
    assert tag_coords(atomic3, 1, TAG_BAND) == diagonal


@pytest.mark.parametrize("fix", ["q", "qsqrt2", "cubic2", "atomic2", "atomic3"])
def test_dd_zero_full(fix, request):
    spec = request.getfixturevalue(fix)
    report = verify_dd_zero(spec, 3)
    assert report.all_zero
    assert [n for n, _ in report.results] == [0, 1, 2, 3]
    assert all(w is None for _, w in report.results)


def unital_tensor(name, products) -> AlgebraSpec:
    """A 3-dimensional structure tensor with basis (e, a, b) = (0, 1, 2) and
    unit e; products maps (i, j) to b_i * b_j for i, j in {a, b}, and the
    products it leaves out are zero."""
    structure = tuple(
        tuple(basis_element(3, j) if i == 0 else basis_element(3, i) if j == 0
              else products.get((i, j), (0, 0, 0)) for j in range(3))
        for i in range(3))
    return AlgebraSpec(name=name, dim=3, structure=structure, unit=basis_element(3, 0))


def first_nonzero(mat):
    """(i, j, value) of mat's first nonzero entry in row and then column order."""
    for i, row in enumerate(mat.rows):
        nonzero = [j for j, v in row.items() if v]
        if nonzero:
            return i, min(nonzero), row[min(nonzero)]
    return None


@pytest.mark.parametrize("spec, first", [
    # a*a = b, a*b = 0, b*b = e: commutative, not associative
    (unital_tensor("nonassociative", {(1, 1): (0, 0, 1), (2, 2): (1, 0, 0)}), (14, 0, 1)),
    # a*b = e, b*a = a: not commutative
    (unital_tensor("noncommutative", {(1, 2): (1, 0, 0), (2, 1): (0, 1, 0)}), (5, 0, 1)),
], ids=["nonassociative", "noncommutative"])
def test_dd_zero_pairs_each_degree_with_the_next(spec, first):
    """On unlawful tensors d_{n+1} d_n is not zero at n = 0, so a report that
    paired the wrong matrices would differ from the products built here.
    At max_n = 0 the nonzero is found in the streamed top d_1, which stops
    at it; at max_n = 3 d_1 is placed in full for the next step."""
    for max_n in (0, 3):
        results = verify_dd_zero(spec, max_n).results
        assert [n for n, _ in results] == list(range(max_n + 1))
        for n, entry in results:
            product = coboundary(spec, n + 1, TAG_FULL).matmul(coboundary(spec, n, TAG_FULL))
            assert entry == first_nonzero(product)
        assert [entry for _, entry in results] == [first, None, None, None][:max_n + 1]


@pytest.mark.parametrize("tag", [TAG_FULL, TAG_BAND])
@pytest.mark.parametrize("max_n", [0, 1, 3])
def test_dd_zero_builds_each_degree_once(atomic3, tag, max_n, monkeypatch):
    """Each d_n, n <= max_n + 1, is streamed once; on the full complex the
    top d_{max_n+1} is checked as it streams and never placed in a matrix."""
    builds = counted_builds(monkeypatch)
    calls = counted_builds(monkeypatch, "coboundary_rows")
    assert verify_dd_zero(atomic3, max_n, tag=tag).all_zero
    assert [n for _, n in calls] == list(range(max_n + 2))
    if tag == TAG_FULL:
        assert max_n + 1 not in [n for _, n in builds]


def test_no_index_matrix_outlives_a_command():
    """After verify_dd_zero and cohomology return, almost nothing they
    allocated in complex.py or linalg.py is still held."""
    quartic = build_number_field([-2, 0, 0, 0, 1])
    gc.collect()
    tracemalloc.start()
    try:
        verify_dd_zero(quartic, 3)
        cohomology(quartic, 3)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([tracemalloc.Filter(True, cx.__file__),
                                   tracemalloc.Filter(True, linalg.__file__)])
    size = sum(stat.size for stat in kept.statistics("filename"))
    assert size < 20_000, f"{size} bytes still traced to complex.py and linalg.py"


def test_dd_zero_never_holds_its_top_matrix():
    """verify_dd_zero streams d_{max_n+1}: on Q[t]/(t^5-2) at max_n = 2 its
    traced peak stays below what d_3 alone takes as an index matrix."""
    quintic = build_number_field([-2, 0, 0, 0, 0, 1])
    gc.collect()
    tracemalloc.start()
    try:
        matrix = index_coboundary_matrix(quintic, 3)
        top = tracemalloc.get_traced_memory()[0]
        del matrix
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert verify_dd_zero(quintic, 2).all_zero
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < top, f"peak {peak} bytes, d_3 alone {top} bytes"


@given(st.lists(st.integers(0, 3), max_size=7).map(tuple))
def test_permutation_weight_counts_the_permutations_fixing_a_tuple(t):
    """The weight is the number of s in S_len(t) with t o s = t, and so each
    distinct arrangement of t is hit by that many permutations."""
    weight = cx.permutation_weight(t)
    fixing = [s for s in itertools.permutations(range(len(t)))
              if tuple(t[i] for i in s) == t]
    assert weight == len(fixing)
    assert weight * len(set(itertools.permutations(t))) == math.factorial(len(t))


def test_index_matrix_speed_on_a_repeated_root():
    # d_8 of Q[t]/((t-1)^2) has 11 distinct rows; each of its 1024 output
    # tuples adds one term, and each row is scaled once by its weight, where
    # walking all 10! permutations of each tuple took seconds
    start = time.perf_counter()
    matrix = index_coboundary_matrix(build_number_field([1, -2, 1]), 8)
    elapsed = time.perf_counter() - start
    assert len({id(r) for r in matrix.rows}) == 11
    assert elapsed < 1, f"{elapsed:.2f}s"


def test_no_permutation_tuple_outlives_a_build():
    """Building even d_4 and drawing all of Jeven(2)'s stream, then dropping
    them, leaves almost nothing allocated in complex.py or cohomology.py:
    the builders keep no table of tuples between builds."""
    quartic = build_number_field([-2, 0, 0, 0, 1])
    gc.collect()
    tracemalloc.start()
    try:
        matrix, chain = index_coboundary_matrix(quartic, 4), list(build_J_even(quartic, 2))
        assert len(chain) == 4 * 4 * math.comb(4 + 4, 5)
        del matrix, chain
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    files = (cx.__file__, sys.modules[build_J_even.__module__].__file__)
    kept = snapshot.filter_traces([tracemalloc.Filter(True, f) for f in files])
    size = sum(stat.size for stat in kept.statistics("filename"))
    assert size < 20_000, f"{size} bytes still traced to complex.py and cohomology.py"


def assert_chain_stream(stream, nrows):
    """The stream yields each row once, in order of first position, its
    least position first, and its positions partition range(nrows)."""
    firsts = [positions[0] for positions, _ in stream]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    assert all(positions[0] == min(positions) for positions, _ in stream)
    assert sorted(i for positions, _ in stream for i in positions) == list(range(nrows))
    assert len({id(row) for _, row in stream}) == len(stream)


@pytest.mark.parametrize("n", [1, 2])
def test_chain_map_rows_are_shared_per_key(n):
    # Jeven(n) on Q[t]/(t^4-2) depends on slots 2..2n+2 only through their
    # multiset: d * d * C(d+2n, 2n+1) distinct rows, 320 of 1024 at n = 1,
    # each yielded once and standing at every tuple of its key, so
    # index_images computes its products once
    d = 4
    stream = list(build_J_even(build_number_field([-2, 0, 0, 0, 1]), n))
    assert_chain_stream(stream, d ** (2 * n + 3))
    at = {i: row for positions, row in stream for i in positions}
    ids = {}  # (x1, multiset of the other slots, output coordinate) -> row ids
    for t in itertools.product(range(d), repeat=2 * n + 2):
        for k in range(d):
            key = (t[0], tuple(sorted(t[1:])), k)
            ids.setdefault(key, set()).add(id(at[tuple_index(t, d) * d + k]))
    assert all(len(s) == 1 for s in ids.values())
    assert len(stream) == len(ids) == d * d * math.comb(d + 2 * n, 2 * n + 1)


@pytest.mark.parametrize("n", [1, 2])
def test_odd_chain_map_rows_stand_at_one_position(n):
    # Jodd(n) has no key but its tuple: row t*d + l is yielded alone, at
    # t*d + l, in flat order
    d = 4
    stream = list(build_J_odd(build_number_field([-2, 0, 0, 0, 1]), n))
    assert_chain_stream(stream, d ** (2 * n + 2))
    assert [positions for positions, _ in stream] == [[i] for i in range(d ** (2 * n + 2))]


def test_dd_zero_quartic_speed():
    # d_4 o d_3 on Q[t]/(t^4-2) multiplies 4096 rows that hold 84 distinct
    # dicts; computing each shared row once keeps it far below this gate
    start = time.perf_counter()
    report = verify_dd_zero(build_number_field([-2, 0, 0, 0, 1]), 3)
    elapsed = time.perf_counter() - start
    assert report.all_zero
    assert elapsed < 1.5, f"{elapsed:.2f}s"


@pytest.mark.parametrize("tag", [TAG_IDEAL, TAG_BAND])
def test_dd_zero_restricted(atomic3, tag):
    assert verify_dd_zero(atomic3, 2, tag=tag).all_zero


def test_dd_zero_ideal_on_field_matches_full(qsqrt2):
    full = verify_dd_zero(qsqrt2, 2, tag=TAG_FULL)
    ideal = verify_dd_zero(qsqrt2, 2, tag=TAG_IDEAL)
    assert full.all_zero and ideal.all_zero


def test_tag_coboundary_is_the_diagonal_oracle():
    """On build_atomic(d), d = 1..6, at every n the default cap allows, the
    full d_n applied to the d diagonal unit cochains stays on the diagonal
    (the oracle asserts it) and is c_n * I_d; and the tag complex's Q-level
    d_n, lifted, gives the same image of each unit."""
    for d in range(1, 7):
        spec = build_atomic(d)
        for tag in (TAG_BAND, TAG_IDEAL):
            for n in range(DEFAULT_DEGREE_CAP):
                c = _diagonal_constant(n)
                oracle = diagonal_coboundary(spec, n, tag)
                assert oracle.rows == [{i: c} if c else {} for i in range(d)]
                coords = tag_coords(spec, n + 1, tag)
                units = [{coords[i]: v for i, v in col.items()}
                         for col in oracle.transpose().rows]
                assert lift(spec, n + 1, tag, coboundary(spec, n, tag).transpose().rows) == units


def test_tag_complexes_stream_only_the_one_atom_algebra(monkeypatch):
    """The band and ideal complexes of build_atomic(5) stream only Q's d_n:
    cohomology and verify_dd_zero never stream the algebra's own, and
    classify streams it only for the multipliers, d_1 for ker d_1 and d_0
    for their coboundaries."""
    spec = build_atomic(5)
    streams = counted_builds(monkeypatch, "coboundary_rows")
    for tag in (TAG_BAND, TAG_IDEAL):
        for degree in range(4):
            cohomology(spec, degree, tag)
        verify_dd_zero(spec, 3, tag)
    assert streams and {s.dim for s, _ in streams} == {1}
    streams.clear()
    classify(spec)
    assert Counter(s.dim for s, _ in streams) == {1: 2, 5: 2}


def test_negative_degree_rejected(qsqrt2):
    with pytest.raises(ValueError, match=r"cochain degrees start at 0, so d_-1 is undefined"):
        coboundary(qsqrt2, -1, TAG_FULL)


def test_degree_cap(qsqrt2):
    # the per-command boundaries are pinned through the CLI in test_cli
    with pytest.raises(DegreeCapExceeded):
        verify_dd_zero(qsqrt2, DEFAULT_DEGREE_CAP - 1)
    # raising the cap unlocks the degree
    assert verify_dd_zero(qsqrt2, DEFAULT_DEGREE_CAP - 1, cap=DEFAULT_DEGREE_CAP + 1).all_zero


def test_even_degree_row_weights(qsqrt2):
    """Row for output tuple t sums structure entries over all of S_{n+2}."""
    m = index_coboundary_matrix(qsqrt2, 2)
    # tuple (0,0,0,0): every permutation contributes c[0][0] = b0 in slot 1
    row = m.rows[0]
    assert row == {0: F(math.factorial(4))}
