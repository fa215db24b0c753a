import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cohomolab import complex as cx
from cohomolab.algebra import basis_element, build_number_field, multiply
from cohomolab.complex import (
    DEFAULT_DEGREE_CAP, DegreeCapExceeded, TAG_BAND, TAG_FULL, TAG_IDEAL,
    apply_d, coboundary, coboundary_images, index_coboundary_matrix, lift,
    naive_coboundary_images, swap_last_two, tag_coords, verify_dd_zero,
)
from cohomolab.cohomology import (
    _chain_map_fn, build_J_even, build_K, cocycle_space, cohomology,
)
from cohomolab.fileformat import parse_algebra_file
from cohomolab.multilinear import from_flat, tuple_index
from conftest import elem, mult_cochain, psi_f_of_ab, psi_f_times_b
from oracles import (
    apply_matrix, coeff, evaluate, from_coeff_function, images_by_tuples,
    index_matrix_by_tuples, intersection, is_zero, per_permutation_coboundary_images, rebase,
    rref,
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
    """The naive evaluator where it is defined, at even n >= 2, and the
    tuple-level build of d_n at n = 0 and odd n."""
    if n >= 2 and n % 2 == 0:
        return naive_coboundary_images(spec, n, rows)
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
    """One pass over every output tuple serves every row, and matches the
    fast images."""
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
    rows = fn(spec).images(cocycle_space(spec, 1, TAG_FULL)) + [
        {0: 1}, {size - 1: F(-2, 3)}, {(7 * i) % size: i - 2 for i in range(5) if i != 2}]
    assert naive_coboundary_images(spec, g, rows) == \
        per_permutation_coboundary_images(spec, g, rows)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_odd_index_matrix_equals_tuple_build(path):
    """The flat-index build of odd d_n equals the one summed per output
    tuple, and for n >= 3 the rows of (a, b, r) and (b, a, r) are one dict."""
    spec = parse_algebra_file(str(path))
    d = spec.dim
    for n in (1, 3, 5) if d <= 3 else (1, 3):
        matrix = index_coboundary_matrix(spec, n)
        assert matrix == index_matrix_by_tuples(spec, n)
        if n >= 3:
            assert len({id(r) for r in matrix.rows}) == d * (d + 1) // 2 * d ** n


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_even_index_matrix_equals_tuple_build(path):
    """The per-multiset build of even d_n equals the one summed over every
    permutation of each output tuple, and its rows are one dict per
    multiset of output indices."""
    spec = parse_algebra_file(str(path))
    d = spec.dim
    for n in (0, 2, 4) if d <= 2 else (0, 2):
        matrix = index_coboundary_matrix(spec, n)
        assert matrix == index_matrix_by_tuples(spec, n)
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
    for d <= 2, with the fixtures' pattern of shared rows."""
    d = spec.dim
    for n in range(5 if d <= 2 else 4):
        matrix = index_coboundary_matrix(spec, n)
        assert matrix == index_matrix_by_tuples(spec, n)
        assert len({id(r) for r in matrix.rows}) == distinct_rows(d, n)


def test_swap_last_two_swaps_the_last_two_indices():
    for d in range(1, 5):
        for m in range(2, 6):
            for t in itertools.product(range(d), repeat=m):
                i = tuple_index(t, d)
                assert swap_last_two(i, d) == tuple_index(t[:-2] + (t[-1], t[-2]), d)
                assert swap_last_two(swap_last_two(i, d), d) == i


def test_no_rows_build_no_matrix():
    """coboundary_images of no rows neither builds nor looks up d_n."""
    spec = build_number_field([-2, 0, 0, 0, 1])
    before = index_coboundary_matrix.cache_info()
    assert coboundary_images(spec, 3, []) == []
    assert index_coboundary_matrix.cache_info() == before


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
    """Closed form: c_0 = 1, c_n = 0 for odd n, c_n = (n+2)! for even n >= 2."""
    spec = request.getfixturevalue(fix)
    for n in range(5):
        c = _diagonal_constant(n)
        expected = [{i: c} if c else {} for i in range(spec.dim)]
        assert coboundary(spec, n, tag).rows == expected
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


@given(st.lists(st.integers(0, 3), max_size=7))
def test_arrangements_are_the_sorted_distinct_permutations(values):
    t = tuple(sorted(values))
    perms, weight = cx.arrangements(t)
    assert perms == sorted(set(itertools.permutations(t)))
    assert weight * len(perms) == math.factorial(len(t))


def test_index_matrix_speed_on_a_repeated_root():
    # d_8 of Q[t]/((t-1)^2) has 11 distinct rows, each over C(10, k)
    # arrangements; listing them through all 10! permutations took seconds
    start = time.perf_counter()
    matrix = index_coboundary_matrix(build_number_field([1, -2, 1]), 8)
    elapsed = time.perf_counter() - start
    assert len({id(r) for r in matrix.rows}) == 11
    assert elapsed < 1, f"{elapsed:.2f}s"


@pytest.mark.parametrize("n", [1, 2])
def test_chain_map_rows_are_shared_per_key(n):
    # Jeven(n) on Q[t]/(t^4-2) depends on slots 2..2n+2 only through their
    # multiset: d * d * C(d+2n, 2n+1) distinct row objects, 320 of 1024 at
    # n = 1, each standing at every tuple of its key, so matmul computes it once
    d = 4
    chain = build_J_even(build_number_field([-2, 0, 0, 0, 1]), n)
    assert chain.nrows == d ** (2 * n + 3)
    ids = {}  # (x1, multiset of the other slots, output coordinate) -> row ids
    for t in itertools.product(range(d), repeat=2 * n + 2):
        for k in range(d):
            key = (t[0], tuple(sorted(t[1:])), k)
            ids.setdefault(key, set()).add(id(chain.rows[tuple_index(t, d) * d + k]))
    assert all(len(s) == 1 for s in ids.values())
    assert len({id(r) for r in chain.rows}) == len(ids) == \
        d * d * math.comb(d + 2 * n, 2 * n + 1)


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


def test_subcomplex_closure(atomic3, monkeypatch):
    real = cx.tag_coords

    def shifted(spec, degree, tag):
        coords = real(spec, degree, tag)
        return [c + 1 for c in coords] if degree == 1 else coords

    monkeypatch.setattr(cx, "tag_coords", shifted)
    with pytest.raises(ValueError, match="not closed at degree 0"):
        coboundary(atomic3, 0, TAG_BAND)


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
